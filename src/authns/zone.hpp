// Authoritative zone storage.
//
// A Zone holds the RRsets of one zone cut in a node index: one node per
// owner name and per empty non-terminal, keyed by its parent node and its
// own lower-cased label. A query name is matched in one apex-down walk over
// its labels, building no Name. Mirrors what NSD loads from a master file.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "dnscore/record.hpp"
#include "dnscore/zonefile.hpp"

namespace recwild::authns {

using dns::Name;
using dns::ResourceRecord;
using dns::RRClass;
using dns::RRset;
using dns::RRType;

class Zone {
 public:
  /// An empty zone rooted at `origin`. Records are added with add().
  explicit Zone(Name origin, RRClass rrclass = RRClass::IN);

  /// Loads a zone from master-file text. The zone origin is `origin`
  /// unless the text overrides it with $ORIGIN before the first record.
  static Zone from_text(Name origin, std::string_view master_text,
                        dns::Ttl default_ttl = 3600);

  [[nodiscard]] const Name& origin() const noexcept { return origin_; }
  [[nodiscard]] RRClass rrclass() const noexcept { return rrclass_; }

  /// Adds one record; an exact duplicate is dropped (RFC 2181 §5), though
  /// the RRset still takes the minimum TTL. Throws std::invalid_argument if
  /// the owner is outside the zone or the class mismatches.
  void add(ResourceRecord rr);

  /// What the walk over a name finds (RFC 1034 §4.3.2-4.3.3).
  struct Match {
    /// The shallowest delegation NS set strictly below the apex, at or
    /// above the name: the name is cut away when this is set.
    const RRset* cut = nullptr;
    /// The name owns RRsets or is an empty non-terminal.
    bool exists = false;
    /// The RRsets at the name (nullptr for an empty non-terminal).
    const std::vector<RRset>* exact = nullptr;
    /// A name that does not exist: the RRsets of "*.<closest encloser>".
    const std::vector<RRset>* wildcard = nullptr;
  };

  /// Matches `qname` in one walk; a name outside the zone matches nothing.
  [[nodiscard]] Match match(const Name& qname) const;

  /// The RRset at (name, type), or nullptr.
  [[nodiscard]] const RRset* find(const Name& name, RRType type) const;

  /// All RRsets at a name (nullptr if the name has none).
  [[nodiscard]] const std::vector<RRset>* find_all(const Name& name) const;

  /// The zone's SOA record; nullopt for a zone still being built.
  [[nodiscard]] std::optional<dns::SoaRdata> soa() const;
  /// SOA negative-caching TTL per RFC 2308: the SOA minimum, capped by the
  /// SOA record's TTL; 300 while the zone has no SOA.
  [[nodiscard]] dns::Ttl negative_ttl() const noexcept {
    return negative_ttl_;
  }

  /// The apex NS set.
  [[nodiscard]] const RRset* apex_ns() const;

  /// Glue lookup: appends the A/AAAA records of `target`, if in zone data,
  /// to `out` (the additional section of referrals and NS answers).
  void glue_for(const Name& target, std::vector<ResourceRecord>& out) const;

  /// Sanity checks NSD performs at load: SOA present at apex, at least one
  /// apex NS, CNAME not mixed with other data at a name. Returns a list of
  /// human-readable problems (empty = valid).
  [[nodiscard]] std::vector<std::string> validate() const;

  [[nodiscard]] std::size_t rrset_count() const noexcept;
  [[nodiscard]] std::size_t record_count() const noexcept;

  /// Every record in canonical owner order — the AXFR payload.
  [[nodiscard]] std::vector<ResourceRecord> all_records() const;

 private:
  static constexpr std::uint32_t kNone = 0xffffffffU;

  // Nodes refer to each other by index, so copies and moves need no fix-up.
  struct Node {
    std::uint64_t key = 0;           // hash of (parent, lower-cased label)
    std::uint32_t parent = kNone;    // kNone for the apex
    std::uint32_t spelled = kNone;   // an owner at or below this node, whose
                                     // name supplies this node's label
    std::uint32_t wildcard = kNone;  // the owner node "*.<this name>"
    std::uint16_t depth = 0;         // label count of this node's name
    bool cut = false;                // owns NS below the apex
    std::vector<RRset> sets;         // empty for an empty non-terminal
  };

  [[nodiscard]] std::uint32_t child(std::uint32_t parent, std::uint64_t key,
                                    const std::string& label) const;
  std::uint32_t insert(const Name& owner);
  [[nodiscard]] std::vector<std::uint32_t> canonical_owners() const;

  Name origin_;
  RRClass rrclass_;
  dns::Ttl negative_ttl_ = 300;
  std::vector<Node> nodes_;  // nodes_[0] is the apex
  // Open-addressed child index of node + 1 (0 = empty), linear probing, at
  // most half full. The apex is nobody's child, so it is not in it.
  std::vector<std::uint32_t> slots_;
};

}  // namespace recwild::authns
