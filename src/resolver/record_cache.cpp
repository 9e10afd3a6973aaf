#include "resolver/record_cache.hpp"

#include <algorithm>

#include "obs/names.hpp"

namespace recwild::resolver {

dns::Ttl CacheEntry::ttl_at(net::SimTime now) const noexcept {
  const double remaining = (expires_at - now).sec();
  return static_cast<dns::Ttl>(std::max(0.0, remaining));
}

void CacheEntry::append_records(std::vector<dns::ResourceRecord>& out,
                                net::SimTime now) const {
  const dns::Ttl ttl = ttl_at(now);
  for (const auto& rd : rrset.rdatas) {
    out.push_back(dns::ResourceRecord{rrset.name, rrset.rrclass, ttl, rd});
  }
}

template <class View>
RecordCache::Slot* RecordCache::find_live(const View& view,
                                          net::SimTime now) {
  const auto it = entries_.find(view);
  if (it == entries_.end()) return nullptr;
  Slot& slot = it->second;
  if (slot.entry.expires_at <= now) {
    erase(it);
    return nullptr;
  }
  touch(slot);
  return &slot;
}

void RecordCache::touch(Slot& slot) noexcept {
  if (newest_ == &slot) return;
  unlink(slot);
  link_front(slot);
}

void RecordCache::link_front(Slot& slot) noexcept {
  slot.newer = nullptr;
  slot.older = newest_;
  if (newest_ != nullptr) newest_->newer = &slot;
  newest_ = &slot;
  if (oldest_ == nullptr) oldest_ = &slot;
}

void RecordCache::unlink(Slot& slot) noexcept {
  (slot.newer != nullptr ? slot.newer->older : newest_) = slot.older;
  (slot.older != nullptr ? slot.older->newer : oldest_) = slot.newer;
}

void RecordCache::erase(Map::iterator it) noexcept {
  unlink(it->second);
  entries_.erase(it);
}

const CacheEntry* RecordCache::count_positive(const Slot* slot,
                                              net::SimTime now) {
  if (slot == nullptr || slot->entry.negative) {
    ++misses_;
    if (obs_misses_ != nullptr) obs_misses_->add(1, now);
    return nullptr;
  }
  ++hits_;
  if (obs_hits_ != nullptr) obs_hits_->add(1, now);
  return &slot->entry;
}

const CacheEntry* RecordCache::find(const dns::Name& name, dns::RRType type,
                                    net::SimTime now) {
  return count_positive(find_live(KeyView{name, type}, now), now);
}

const CacheEntry* RecordCache::find_suffix(const dns::Name& name,
                                           std::size_t depth,
                                           dns::RRType type,
                                           net::SimTime now) {
  return count_positive(find_live(SuffixView{name, depth, type}, now), now);
}

const CacheEntry* RecordCache::find_negative(const dns::Name& name,
                                             dns::RRType type,
                                             net::SimTime now) {
  const Slot* slot = find_live(KeyView{name, type}, now);
  if (slot == nullptr || !slot->entry.negative) return nullptr;
  if (obs_negative_hits_ != nullptr) obs_negative_hits_->add(1, now);
  return &slot->entry;
}

const CacheEntry* RecordCache::lookup(const dns::Name& name, dns::RRType type,
                                      net::SimTime now) {
  const Slot* slot = find_live(KeyView{name, type}, now);
  if (slot != nullptr && slot->entry.negative) {
    if (obs_negative_hits_ != nullptr) obs_negative_hits_->add(1, now);
    return &slot->entry;
  }
  return count_positive(slot, now);
}

const dns::RRset* RecordCache::peek(const dns::Name& name, dns::RRType type,
                                    net::SimTime now) const {
  const auto it = entries_.find(KeyView{name, type});
  if (it == entries_.end()) return nullptr;
  const CacheEntry& e = it->second.entry;
  if (e.expires_at <= now || e.negative) return nullptr;
  return &e.rrset;
}

void RecordCache::put(dns::RRset rrset, net::SimTime now) {
  const dns::Ttl ttl =
      std::clamp(rrset.ttl, config_.min_ttl, config_.max_ttl);
  CacheEntry entry;
  entry.rrset = std::move(rrset);
  entry.rrset.ttl = ttl;
  entry.expires_at = now + net::Duration::seconds(ttl);
  insert(entry.rrset.name, entry.rrset.type, std::move(entry), now);
}

void RecordCache::put_negative(const dns::Name& name, dns::RRType type,
                               dns::Rcode rcode, dns::Ttl ttl,
                               net::SimTime now) {
  CacheEntry entry;
  entry.negative = true;
  entry.negative_rcode = rcode;
  entry.rrset.name = name;
  entry.rrset.type = type;
  entry.expires_at =
      now + net::Duration::seconds(
                std::clamp(ttl, config_.min_ttl, config_.max_ttl));
  insert(name, type, std::move(entry), now);
}

void RecordCache::insert(const dns::Name& name, dns::RRType type,
                         CacheEntry&& entry, net::SimTime now) {
  // Overwrite in place: the key and its LRU links stay, the slot moves to
  // the front.
  if (const auto it = entries_.find(KeyView{name, type});
      it != entries_.end()) {
    it->second.entry = std::move(entry);
    touch(it->second);
    return;
  }
  while (oldest_ != nullptr && entries_.size() >= config_.max_entries) {
    evict_one(now);
  }
  const auto it = entries_.emplace(Key{name, type}, Slot{}).first;
  it->second.entry = std::move(entry);
  it->second.key = &it->first;
  link_front(it->second);
}

void RecordCache::evict_one(net::SimTime now) {
  erase(entries_.find(*oldest_->key));
  ++evictions_;
  if (obs_evictions_ != nullptr) obs_evictions_->add(1, now);
}

void RecordCache::attach_metrics(obs::MetricRegistry& registry) {
  obs_hits_ = &registry.counter(obs::names::kRrcacheHits);
  obs_misses_ = &registry.counter(obs::names::kRrcacheMisses);
  obs_negative_hits_ = &registry.counter(obs::names::kRrcacheNegativeHits);
  obs_evictions_ = &registry.counter(obs::names::kRrcacheEvictions);
}

void RecordCache::clear() {
  entries_.clear();
  newest_ = nullptr;
  oldest_ = nullptr;
}

}  // namespace recwild::resolver
