// Domain names (RFC 1034 §3.1, RFC 1035 §2.3.1).
//
// A Name is an ordered list of labels, most-specific first, excluding the
// root label; the root itself is the empty list. Comparison and hashing are
// case-insensitive per RFC 1035 §2.3.3. Wire-format limits are enforced on
// construction: labels of 1..63 octets, total wire length <= 255.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace recwild::dns {

class Name {
 public:
  /// The root name (".").
  Name() = default;

  // Copies/moves must be spelled out because of the cached-hash atomic;
  // the cache travels with the labels (same labels, same hash).
  Name(const Name& o)
      : labels_(o.labels_),
        hash_cache_(o.hash_cache_.load(std::memory_order_relaxed)) {}
  Name(Name&& o) noexcept
      : labels_(std::move(o.labels_)),
        hash_cache_(o.hash_cache_.load(std::memory_order_relaxed)) {
    // The moved-from Name's labels are gone; drop its cached hash so a
    // reused moved-from Name recomputes instead of serving a stale value.
    o.hash_cache_.store(0, std::memory_order_relaxed);
  }
  Name& operator=(const Name& o) {
    labels_ = o.labels_;
    hash_cache_.store(o.hash_cache_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    return *this;
  }
  Name& operator=(Name&& o) noexcept {
    labels_ = std::move(o.labels_);
    hash_cache_.store(o.hash_cache_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    o.hash_cache_.store(0, std::memory_order_relaxed);
    return *this;
  }
  ~Name() = default;

  /// Parses presentation format: "www.example.nl" or "www.example.nl.".
  /// Accepts escaped dots ("\.") inside labels. Throws std::invalid_argument
  /// on empty labels, oversize labels/names, or other malformed input.
  static Name parse(std::string_view text);

  /// Builds from raw labels (no unescaping). Throws on limit violations.
  static Name from_labels(std::vector<std::string> labels);

  [[nodiscard]] bool is_root() const noexcept { return labels_.empty(); }
  [[nodiscard]] std::size_t label_count() const noexcept {
    return labels_.size();
  }
  [[nodiscard]] const std::string& label(std::size_t i) const {
    return labels_.at(i);
  }
  [[nodiscard]] std::span<const std::string> labels() const noexcept {
    return labels_;
  }

  /// Wire-format length in octets (sum of 1+len per label, +1 root byte).
  [[nodiscard]] std::size_t wire_length() const noexcept;

  /// Presentation format, always with trailing dot ("example.nl.", ".").
  [[nodiscard]] std::string to_string() const;

  /// Case-insensitive equality.
  [[nodiscard]] bool equals(const Name& o) const noexcept;
  bool operator==(const Name& o) const noexcept { return equals(o); }

  /// Canonical DNSSEC-style ordering (case-insensitive, right-to-left by
  /// label). Provides a strict weak order for sorted zone storage.
  [[nodiscard]] int compare(const Name& o) const noexcept;
  bool operator<(const Name& o) const noexcept { return compare(o) < 0; }

  /// True if *this is `ancestor` itself or a descendant of it.
  [[nodiscard]] bool is_subdomain_of(const Name& ancestor) const noexcept;

  /// Immediate parent; root's parent is root.
  [[nodiscard]] Name parent() const;

  /// Prepends a label: Name::parse("example.nl").prefixed("www").
  [[nodiscard]] Name prefixed(std::string_view label) const;

  /// Concatenation: relative.concat(origin) appends origin's labels.
  [[nodiscard]] Name concat(const Name& suffix) const;

  /// Case-insensitive hash consistent with equals().
  [[nodiscard]] std::size_t hash() const noexcept;

  /// hash() of the suffix keeping the last `depth` labels (at most
  /// label_count()), computed in place: equal to the hash() of that suffix
  /// as a Name, without building one.
  [[nodiscard]] std::size_t suffix_hash(std::size_t depth) const noexcept;

  /// Lower-cases ASCII; used for canonical comparisons.
  static char to_lower(char c) noexcept {
    return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
  }

 private:
  void validate() const;

  std::vector<std::string> labels_;
  /// Lazily computed hash(); 0 = not yet computed (the computed value is
  /// remapped off 0). Relaxed atomic: labels_ never changes once a Name is
  /// visible, so concurrent shard threads at worst both compute the same
  /// value — no torn reads, no TSan findings, no locking.
  mutable std::atomic<std::size_t> hash_cache_{0};
};

inline constexpr std::size_t kMaxLabelLength = 63;
inline constexpr std::size_t kMaxNameWireLength = 255;

}  // namespace recwild::dns

template <>
struct std::hash<recwild::dns::Name> {
  std::size_t operator()(const recwild::dns::Name& n) const noexcept {
    return n.hash();
  }
};
