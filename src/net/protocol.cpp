#include "net/protocol.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <optional>

#include "data/dataset.h"
#include "lint/lint.h"
#include "serve/registry.h"
#include "util/csv.h"

namespace noodle::net::protocol {

namespace {

void append_uint(std::string& out, std::uint64_t value) {
  char digits[20];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, value);
  out.append(digits, end);
}

/// The lint= column: total count, then the first findings as CODE@line so
/// a grep of the stream surfaces the rule and position without another
/// lint run. No spaces — the column must stay one awk field.
void append_lint_column(std::string& line, const core::DetectionReport& report) {
  line += "lint=";
  append_uint(line, report.lint_count);
  constexpr std::size_t kMaxListed = 8;
  const std::size_t listed = std::min(report.lint_findings.size(), kMaxListed);
  for (std::size_t i = 0; i < listed; ++i) {
    const lint::OwnedFinding& finding = report.lint_findings[i];
    line += i == 0 ? ':' : ',';
    line += lint::rule_info(finding.rule).code;
    line += '@';
    append_uint(line, static_cast<std::uint64_t>(finding.line));
  }
  if (report.lint_count > listed) line += ",+more";
}

/// The trace= column: the request's trace id plus per-stage wall time in
/// microseconds, comma-joined with no spaces so the column stays one awk
/// field. Cache hits report the lookup instead of the pipeline stages they
/// never ran.
void append_trace_column(std::string& line, const core::DetectionReport& report) {
  const core::RequestTiming& timing = report.timing;
  line += "trace=";
  append_uint(line, timing.trace_id);
  if (timing.from_cache) {
    line += ":cache=hit,lookup=";
    append_uint(line, timing.cache_lookup_us);
  } else {
    line += ":queue=";
    append_uint(line, timing.queue_wait_us);
    line += ",feat=";
    append_uint(line, timing.featurize_us);
    line += ",infer=";
    append_uint(line, timing.infer_us);
    line += ",lint=";
    append_uint(line, timing.lint_us);
  }
  line += ",total=";
  append_uint(line, timing.total_us);
}

}  // namespace

RequestLine parse_request_line(
    std::string_view line, const std::function<bool(const std::string&)>& is_model) {
  RequestLine request;
  std::string_view rest = line;

  // Model prefix: honoured only when the prefix both parses as a spec AND
  // names a registered model — so ':' inside paths or inline RTL (ternary
  // operators, vector ranges) never mis-splits. Same rule the stdin loop
  // always used. Most prefixes are not specs; the probe throws nothing.
  const std::size_t colon = rest.find(':');
  if (colon != std::string_view::npos && colon > 0) {
    const std::string_view prefix = rest.substr(0, colon);
    const std::optional<serve::ModelSpec> spec = serve::try_parse_model_spec(prefix);
    if (spec && is_model(spec->name)) {
      request.spec = std::string(prefix);
      rest.remove_prefix(colon + 1);
    }
  }

  // Flags: space-separated "~..." tokens before the body. Inline RTL can
  // never start with '~' (no Verilog construct does), so the loop always
  // terminates at the real body.
  while (!rest.empty() && rest.front() == '~') {
    const std::size_t space = rest.find(' ');
    const std::string_view flag = rest.substr(0, space);
    rest.remove_prefix(space == std::string_view::npos ? rest.size() : space + 1);
    constexpr std::string_view kDeadline = "~deadline=";
    if (flag == "~inline") {
      request.inline_rtl = true;
    } else if (flag.size() > kDeadline.size() && flag.starts_with(kDeadline)) {
      const std::string_view value = flag.substr(kDeadline.size());
      if (!std::all_of(value.begin(), value.end(),
                       [](unsigned char c) { return c >= '0' && c <= '9'; }) ||
          value.size() > 9) {  // < 1e9 ms ≈ 11 days; rejects overflow cheaply
        request.error = "bad deadline '" + std::string(value) + "'";
        return request;
      }
      std::int64_t ms = 0;
      std::from_chars(value.data(), value.data() + value.size(), ms);
      request.deadline = std::chrono::milliseconds(ms);
    } else {
      request.error = "unknown flag '" + std::string(flag) + "'";
      return request;
    }
  }

  // The body's one copy out of the caller's line.
  request.body = std::string(rest);
  if (request.body.empty()) request.error = "empty request body";
  return request;
}

std::string region_text(const cp::PredictionRegion& region) {
  if (region.is_uncertain()) return "{TF,TI}";
  if (region.is_empty()) return "{}";
  return region.contains[1] ? "{TI}" : "{TF}";
}

std::string verdict_line(const core::DetectionReport& report, const std::string& echo,
                         bool trace_on) {
  // One reserved buffer, appended in place: the loop formats one of these
  // per verdict.
  std::string line;
  line.reserve(96 + report.served_by.size() + echo.size() +
               (report.lint_ran ? 96 : 0) + (trace_on ? 128 : 0));
  line += report.predicted_label == data::kTrojanInfected ? "TROJAN-INFECTED"
                                                          : "trojan-free";
  line += "\tp=";
  util::append_fixed(line, report.probability, 3);
  line += "\tregion=";
  line += region_text(report.region);
  line += "\tmodel=";
  line += report.served_by;
  if (report.lint_ran) {
    line += '\t';
    append_lint_column(line, report);
  }
  if (trace_on) {
    line += '\t';
    append_trace_column(line, report);
  }
  line += '\t';
  line += echo;
  return line;
}

std::string status_line(const char* status, const std::string& model,
                        const std::string& echo) {
  std::string line = status;
  line += "\t-\t-\tmodel=";
  line += model;
  line += '\t';
  line += echo;
  return line;
}

}  // namespace noodle::net::protocol
