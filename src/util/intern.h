#pragma once
// String interning for the featurization front-end.
//
// SymbolTable maps each distinct spelling to a stable u32 Symbol (ids are
// assigned densely in first-seen order and never change), storing the
// characters once in an internal arena. Lookup is FNV-1a keyed
// open-addressing over a power-of-two slot array; steady state (every
// spelling already seen) performs zero heap allocations, which is what lets
// a reused feat::FeaturizeWorkspace re-featurize sources allocation-free.
//
// SymbolMap is the companion flat hash from Symbol to a small value
// (graph::GraphBuilder's signal index uses it); open addressing with
// Fibonacci hashing, clear() keeps capacity.

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/arena.h"

namespace noodle::util {

using Symbol = std::uint32_t;

/// Sentinel for "no symbol" (never returned by intern()).
inline constexpr Symbol kNoSymbol = 0xFFFFFFFFu;

class SymbolTable {
 public:
  SymbolTable();

  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Returns the id of `text`, interning a copy on first sight. Ids are
  /// dense (0, 1, 2, ...) and stable for the table's lifetime.
  Symbol intern(std::string_view text);

  /// Id of `text` if already interned, kNoSymbol otherwise. Never allocates.
  Symbol find(std::string_view text) const noexcept;

  /// The spelling behind an id; views stay valid until reset().
  std::string_view text(Symbol symbol) const;

  std::size_t size() const noexcept { return entries_.size(); }

  /// Heap bytes the table holds: character arena, entry vector and slot
  /// array capacity. reset() keeps all of it.
  std::size_t bytes_reserved() const noexcept {
    return chars_.bytes_reserved() + entries_.capacity() * sizeof(Entry) +
           slots_.capacity() * sizeof(Symbol);
  }

  /// Forgets every interned spelling but keeps all storage capacity (the
  /// slot array, entry vector, and character arena). Every previously
  /// issued Symbol and text() view is invalidated — callers re-seed any
  /// fixed vocabulary themselves. This is the pressure valve that keeps a
  /// long-lived worker's pool bounded: without it, a workspace interning
  /// arbitrary user RTL would grow with cumulative input diversity forever.
  void reset() noexcept;

 private:
  struct Entry {
    const char* data;
    std::uint32_t length;
    std::uint64_t hash;
  };

  std::size_t slot_of(std::string_view text, std::uint64_t hash) const noexcept;
  void grow();

  Arena chars_;
  std::vector<Entry> entries_;        // indexed by Symbol
  std::vector<Symbol> slots_;         // open-addressing table, kNoSymbol = empty
  std::size_t mask_ = 0;              // slots_.size() - 1 (power of two)
};

/// Flat hash map Symbol -> Value for small trivially-copyable values.
template <typename Value>
class SymbolMap {
 public:
  void clear() noexcept {
    if (used_ != 0) {
      std::fill(keys_.begin(), keys_.end(), kNoSymbol);
      used_ = 0;
    }
  }

  /// Pointer to the value for `key`, or nullptr when absent.
  Value* find(Symbol key) noexcept {
    if (keys_.empty()) return nullptr;
    for (std::size_t i = slot(key);; i = (i + 1) & mask_) {
      if (keys_[i] == key) return &values_[i];
      if (keys_[i] == kNoSymbol) return nullptr;
    }
  }

  /// Inserts or overwrites.
  void put(Symbol key, Value value) {
    if (keys_.empty() || used_ * 4 >= keys_.size() * 3) grow();
    for (std::size_t i = slot(key);; i = (i + 1) & mask_) {
      if (keys_[i] == key) {
        values_[i] = value;
        return;
      }
      if (keys_[i] == kNoSymbol) {
        keys_[i] = key;
        values_[i] = value;
        ++used_;
        return;
      }
    }
  }

  std::size_t size() const noexcept { return used_; }

 private:
  std::size_t slot(Symbol key) const noexcept {
    // Fibonacci hashing spreads the dense symbol ids across the table.
    return static_cast<std::size_t>((key * 2654435769u) & mask_);
  }

  void grow() {
    const std::size_t capacity = keys_.empty() ? 64 : keys_.size() * 2;
    std::vector<Symbol> old_keys = std::move(keys_);
    std::vector<Value> old_values = std::move(values_);
    keys_.assign(capacity, kNoSymbol);
    values_.assign(capacity, Value{});
    mask_ = capacity - 1;
    used_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != kNoSymbol) put(old_keys[i], old_values[i]);
    }
  }

  std::vector<Symbol> keys_;
  std::vector<Value> values_;
  std::size_t mask_ = 0;
  std::size_t used_ = 0;
};

}  // namespace noodle::util
