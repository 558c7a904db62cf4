#include "serve/registry.h"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace noodle::serve {

namespace {

bool valid_name(std::string_view name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](unsigned char c) {
    return std::isalnum(c) || c == '.' || c == '_' || c == '-';
  });
}

}  // namespace

std::string ModelSpec::to_string() const {
  return version == 0 ? name : name + "@" + std::to_string(version);
}

std::optional<ModelSpec> try_parse_model_spec(std::string_view spec) noexcept {
  const std::size_t at = spec.find('@');
  const std::string_view name = spec.substr(0, at);
  if (!valid_name(name)) return std::nullopt;
  ModelSpec parsed;
  if (at != std::string_view::npos) {
    const std::string_view version = spec.substr(at + 1);
    const auto [end, ec] =
        std::from_chars(version.data(), version.data() + version.size(), parsed.version);
    if (ec != std::errc{} || end != version.data() + version.size() ||
        parsed.version == 0) {
      return std::nullopt;
    }
  }
  parsed.name = std::string(name);
  return parsed;
}

ModelSpec parse_model_spec(std::string_view spec) {
  std::optional<ModelSpec> parsed = try_parse_model_spec(spec);
  if (!parsed) {
    throw RegistryError("registry: bad model spec '" + std::string(spec) +
                        "' (want name or name@N with N >= 1)");
  }
  return std::move(*parsed);
}

// ---------------------------------------------------------------------------
// LoadedModel
// ---------------------------------------------------------------------------

LoadedModel::LoadedModel(std::string name, std::uint64_t version, std::uint64_t id,
                         std::shared_ptr<const core::FittedModel> model,
                         std::filesystem::path source)
    : name_(std::move(name)),
      version_(version),
      id_(id),
      model_(std::move(model)),
      source_(std::move(source)) {}

std::string LoadedModel::label() const {
  return name_ + "@" + std::to_string(version_);
}

// ---------------------------------------------------------------------------
// ModelRegistry
// ---------------------------------------------------------------------------

std::shared_ptr<ModelRegistry::NameEntry> ModelRegistry::find_entry(
    const std::string& name) const {
  std::shared_lock lock(names_mu_);
  const auto it = names_.find(name);
  return it == names_.end() ? nullptr : it->second;
}

ModelHandle ModelRegistry::publish(const std::string& name,
                                   std::shared_ptr<const core::FittedModel> model,
                                   std::filesystem::path source) {
  return publish_timed(name, std::move(model), std::move(source), 0);
}

ModelHandle ModelRegistry::publish_timed(const std::string& name,
                                         std::shared_ptr<const core::FittedModel> model,
                                         std::filesystem::path source,
                                         std::uint64_t load_micros) {
  if (!valid_name(name)) {
    throw RegistryError("registry: bad model name '" + name + "'");
  }
  if (!model) {
    throw RegistryError("registry: publish of null model for '" + name + "'");
  }
  std::shared_ptr<NameEntry> entry;
  {
    std::unique_lock lock(names_mu_);
    std::shared_ptr<NameEntry>& slot = names_[name];
    if (!slot) slot = std::make_shared<NameEntry>();
    entry = slot;
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  const std::uint64_t version = entry->next_version++;
  auto loaded = std::make_shared<const LoadedModel>(
      name, version, next_id_.fetch_add(1, std::memory_order_relaxed),
      std::move(model), std::move(source));
  entry->versions.emplace(version, loaded);
  // The swap: one atomic store repoints the epoch slot. Readers on the fast
  // path (try_resolve of the latest) see the previous generation or
  // this one — no torn state, no blocking.
  entry->latest.store(loaded);
  record_event(ReloadEvent{std::chrono::system_clock::now(), name, loaded->version(),
                           loaded->id(), load_micros, true, {}});
  return loaded;
}

ModelHandle ModelRegistry::reload_from(const std::string& name,
                                       const std::filesystem::path& path) {
  // Load and validate before taking any registry lock: a slow or corrupt
  // snapshot never stalls resolves, and a failed load changes nothing —
  // except an error entry in the reload event log, so an operator can see
  // the rejected swap attempt after the fact.
  const std::uint64_t start_nanos = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  const auto elapsed_micros = [start_nanos] {
    const auto now = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    return (now - start_nanos) / 1000;
  };
  std::shared_ptr<const core::FittedModel> model;
  try {
    model = core::FittedModel::load(path);
  } catch (const std::exception& e) {
    record_event(ReloadEvent{std::chrono::system_clock::now(), name, 0, 0,
                             elapsed_micros(), false, e.what()});
    throw;
  }
  return publish_timed(name, std::move(model), path, elapsed_micros());
}

void ModelRegistry::record_event(ReloadEvent event) {
  std::lock_guard<std::mutex> lock(events_mu_);
  if (event.ok) {
    ++reload_stats_.ok;
  } else {
    ++reload_stats_.errors;
  }
  reload_stats_.load_micros_total += event.load_micros;
  events_.push_back(std::move(event));
  while (events_.size() > kMaxReloadEvents) events_.pop_front();
}

std::vector<ReloadEvent> ModelRegistry::reload_events() const {
  std::lock_guard<std::mutex> lock(events_mu_);
  return {events_.begin(), events_.end()};
}

ReloadStats ModelRegistry::reload_stats() const {
  std::lock_guard<std::mutex> lock(events_mu_);
  return reload_stats_;
}

ModelHandle ModelRegistry::try_resolve(const ModelSpec& spec) const noexcept {
  const std::shared_ptr<NameEntry> entry = find_entry(spec.name);
  if (!entry) return nullptr;
  if (spec.version == 0) return entry->latest.load();
  std::lock_guard<std::mutex> lock(entry->mu);
  const auto it = entry->versions.find(spec.version);
  return it == entry->versions.end() ? nullptr : it->second;
}

ModelHandle ModelRegistry::resolve(const ModelSpec& spec) const {
  ModelHandle handle = try_resolve(spec);
  if (!handle) {
    throw RegistryError("registry: no model '" + spec.to_string() + "'");
  }
  return handle;
}

ModelHandle ModelRegistry::resolve(std::string_view spec) const {
  return resolve(parse_model_spec(spec));
}

bool ModelRegistry::retire(const std::string& name, std::uint64_t version) {
  const std::shared_ptr<NameEntry> entry = find_entry(name);
  if (!entry) return false;
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->versions.empty()) return false;
  const auto it = version == 0 ? std::prev(entry->versions.end())
                               : entry->versions.find(version);
  if (it == entry->versions.end()) return false;
  entry->versions.erase(it);
  // Repoint latest to the highest survivor (nullptr when none). Handles
  // already resolved stay alive — retire only stops new resolutions.
  entry->latest.store(entry->versions.empty() ? nullptr
                                              : entry->versions.rbegin()->second);
  return true;
}

std::vector<std::string> ModelRegistry::names() const {
  std::vector<std::string> result;
  {
    std::shared_lock lock(names_mu_);
    for (const auto& [name, entry] : names_) {
      if (entry->latest.load() != nullptr) result.push_back(name);
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<ModelHandle> ModelRegistry::catalog() const {
  std::vector<ModelHandle> result;
  std::vector<std::shared_ptr<NameEntry>> entries;
  {
    std::shared_lock lock(names_mu_);
    entries.reserve(names_.size());
    for (const auto& [name, entry] : names_) entries.push_back(entry);
  }
  for (const auto& entry : entries) {
    std::lock_guard<std::mutex> lock(entry->mu);
    for (const auto& [version, handle] : entry->versions) result.push_back(handle);
  }
  std::sort(result.begin(), result.end(), [](const ModelHandle& a, const ModelHandle& b) {
    return a->name() != b->name() ? a->name() < b->name() : a->version() < b->version();
  });
  return result;
}

std::size_t ModelRegistry::size() const {
  std::size_t count = 0;
  std::vector<std::shared_ptr<NameEntry>> entries;
  {
    std::shared_lock lock(names_mu_);
    for (const auto& [name, entry] : names_) entries.push_back(entry);
  }
  for (const auto& entry : entries) {
    std::lock_guard<std::mutex> lock(entry->mu);
    count += entry->versions.size();
  }
  return count;
}

}  // namespace noodle::serve
