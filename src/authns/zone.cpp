#include "authns/zone.hpp"

#include <algorithm>
#include <stdexcept>

namespace recwild::authns {

namespace {

// FNV-1a over the parent node and the lower-cased label.
std::uint64_t child_key(std::uint32_t parent, const std::string& label) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h = (0xcbf29ce484222325ULL ^ parent) * kPrime;
  for (const char c : label) {
    h = (h ^ static_cast<unsigned char>(Name::to_lower(c))) * kPrime;
  }
  return h;
}

std::size_t slot_of(std::uint64_t key, std::size_t mask) {
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32) &
         mask;
}

bool label_equal(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (Name::to_lower(a[i]) != Name::to_lower(b[i])) return false;
  }
  return true;
}

const RRset* type_in(const std::vector<RRset>& sets, RRType type) {
  for (const auto& s : sets) {
    if (s.type == type) return &s;
  }
  return nullptr;
}

}  // namespace

Zone::Zone(Name origin, RRClass rrclass)
    : origin_(std::move(origin)), rrclass_(rrclass), nodes_(1) {
  nodes_[0].depth = static_cast<std::uint16_t>(origin_.label_count());
}

Zone Zone::from_text(Name origin, std::string_view master_text,
                     dns::Ttl default_ttl) {
  dns::ZoneFileOptions opts;
  opts.origin = origin;
  opts.default_ttl = default_ttl;
  Zone zone{std::move(origin)};
  for (auto& rr : dns::parse_zone_text(master_text, opts)) {
    zone.add(std::move(rr));
  }
  return zone;
}

std::uint32_t Zone::child(std::uint32_t parent, std::uint64_t key,
                          const std::string& label) const {
  if (slots_.empty()) return kNone;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = slot_of(key, mask); slots_[s] != 0;
       s = (s + 1) & mask) {
    const Node& n = nodes_[slots_[s] - 1];
    if (n.key != key || n.parent != parent) continue;
    const Name& owner = nodes_[n.spelled].sets.front().name;
    if (label_equal(owner.labels()[owner.label_count() - n.depth], label)) {
      return slots_[s] - 1;
    }
  }
  return kNone;
}

std::uint32_t Zone::insert(const Name& owner) {
  const auto labels = owner.labels();
  std::uint32_t node = 0;
  for (std::size_t i = labels.size() - origin_.label_count(); i-- > 0;) {
    const std::uint64_t key = child_key(node, labels[i]);
    std::uint32_t next = child(node, key, labels[i]);
    if (next == kNone) {
      // Every label from here down is a new node; the owner is the last.
      next = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{key, node, next + static_cast<std::uint32_t>(i),
                            kNone,
                            static_cast<std::uint16_t>(labels.size() - i),
                            false, {}});
      const bool grow = 2 * nodes_.size() > slots_.size();
      if (grow) slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), 0);
      const std::size_t mask = slots_.size() - 1;
      for (std::uint32_t n = grow ? 1 : next; n <= next; ++n) {
        std::size_t s = slot_of(nodes_[n].key, mask);
        while (slots_[s] != 0) s = (s + 1) & mask;
        slots_[s] = n + 1;
      }
    }
    node = next;
  }
  return node;
}

void Zone::add(ResourceRecord rr) {
  if (!rr.name.is_subdomain_of(origin_)) {
    throw std::invalid_argument{"Zone::add: " + rr.name.to_string() +
                                " is outside zone " + origin_.to_string()};
  }
  if (rr.rrclass != rrclass_) {
    throw std::invalid_argument{"Zone::add: class mismatch"};
  }
  const std::uint32_t id = insert(rr.name);
  Node& node = nodes_[id];
  const RRType t = rr.type();
  if (id != 0) {
    if (t == RRType::NS) node.cut = true;
    if (rr.name.label(0) == "*") nodes_[node.parent].wildcard = id;
  }
  auto set = std::find_if(node.sets.begin(), node.sets.end(),
                          [t](const RRset& s) { return s.type == t; });
  if (set == node.sets.end()) {
    node.sets.push_back(RRset{std::move(rr.name), rr.rrclass, t, rr.ttl, {}});
    set = node.sets.end() - 1;
  }
  set->ttl = std::min(set->ttl, rr.ttl);
  if (std::find(set->rdatas.begin(), set->rdatas.end(), rr.rdata) ==
      set->rdatas.end()) {
    set->rdatas.push_back(std::move(rr.rdata));
  }
  if (t == RRType::SOA && id == 0) {
    negative_ttl_ = std::min<dns::Ttl>(
        std::get<dns::SoaRdata>(set->rdatas.front()).minimum, set->ttl);
  }
}

Zone::Match Zone::match(const Name& qname) const {
  Match m;
  if (!qname.is_subdomain_of(origin_)) return m;
  const auto labels = qname.labels();
  std::uint32_t node = 0;
  for (std::size_t i = labels.size() - origin_.label_count(); i-- > 0;) {
    const std::uint32_t next =
        child(node, child_key(node, labels[i]), labels[i]);
    if (next == kNone) {
      // qname does not exist and `node` is its closest encloser.
      if (const std::uint32_t wc = nodes_[node].wildcard; wc != kNone) {
        m.wildcard = &nodes_[wc].sets;
      }
      return m;
    }
    node = next;
    if (nodes_[node].cut && m.cut == nullptr) {
      m.cut = type_in(nodes_[node].sets, RRType::NS);
    }
  }
  const Node& n = nodes_[node];
  m.exists = node != 0 || nodes_.size() > 1 || !n.sets.empty();
  if (!n.sets.empty()) m.exact = &n.sets;
  return m;
}

const RRset* Zone::find(const Name& name, RRType type) const {
  const std::vector<RRset>* sets = find_all(name);
  return sets == nullptr ? nullptr : type_in(*sets, type);
}

const std::vector<RRset>* Zone::find_all(const Name& name) const {
  return match(name).exact;
}

std::optional<dns::SoaRdata> Zone::soa() const {
  const RRset* s = type_in(nodes_[0].sets, RRType::SOA);
  if (s == nullptr || s->rdatas.empty()) return std::nullopt;
  return std::get<dns::SoaRdata>(s->rdatas.front());
}

const RRset* Zone::apex_ns() const {
  return type_in(nodes_[0].sets, RRType::NS);
}

void Zone::glue_for(const Name& target,
                    std::vector<ResourceRecord>& out) const {
  const std::vector<RRset>* sets = find_all(target);
  if (sets == nullptr) return;
  for (const RRType t : {RRType::A, RRType::AAAA}) {
    const RRset* s = type_in(*sets, t);
    if (s == nullptr) continue;
    for (const auto& rd : s->rdatas) {
      out.push_back(ResourceRecord{s->name, s->rrclass, s->ttl, rd});
    }
  }
}

std::vector<std::string> Zone::validate() const {
  std::vector<std::string> problems;
  if (!soa()) problems.push_back("missing SOA at apex");
  if (apex_ns() == nullptr || apex_ns()->empty()) {
    problems.push_back("missing NS at apex");
  }
  for (const std::uint32_t id : canonical_owners()) {
    const auto& sets = nodes_[id].sets;
    const RRset* cname = type_in(sets, RRType::CNAME);
    if (cname == nullptr) continue;
    const std::string name = sets.front().name.to_string();
    if (sets.size() > 1) problems.push_back("CNAME and other data at " + name);
    if (cname->size() > 1) problems.push_back("multiple CNAMEs at " + name);
  }
  return problems;
}

std::size_t Zone::rrset_count() const noexcept {
  std::size_t n = 0;
  for (const auto& node : nodes_) n += node.sets.size();
  return n;
}

std::size_t Zone::record_count() const noexcept {
  std::size_t n = 0;
  for (const auto& node : nodes_) {
    for (const auto& s : node.sets) n += s.size();
  }
  return n;
}

std::vector<std::uint32_t> Zone::canonical_owners() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
    if (!nodes_[id].sets.empty()) out.push_back(id);
  }
  std::sort(out.begin(), out.end(), [this](std::uint32_t a, std::uint32_t b) {
    return nodes_[a].sets.front().name.compare(nodes_[b].sets.front().name) <
           0;
  });
  return out;
}

std::vector<ResourceRecord> Zone::all_records() const {
  std::vector<ResourceRecord> out;
  out.reserve(record_count());
  for (const std::uint32_t id : canonical_owners()) {
    for (const auto& s : nodes_[id].sets) {
      auto records = s.to_records();
      out.insert(out.end(), records.begin(), records.end());
    }
  }
  return out;
}

}  // namespace recwild::authns
