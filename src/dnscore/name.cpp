#include "dnscore/name.hpp"

#include <stdexcept>

namespace recwild::dns {

Name Name::parse(std::string_view text) {
  if (text.empty()) throw std::invalid_argument{"Name: empty input"};
  if (text == ".") return Name{};
  std::vector<std::string> labels;
  std::string current;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\\') {
      if (i + 1 >= text.size()) {
        throw std::invalid_argument{"Name: dangling escape"};
      }
      current.push_back(text[++i]);
    } else if (c == '.') {
      if (current.empty()) {
        throw std::invalid_argument{"Name: empty label in '" +
                                    std::string(text) + "'"};
      }
      labels.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) labels.push_back(std::move(current));
  return from_labels(std::move(labels));
}

Name Name::from_labels(std::vector<std::string> labels) {
  Name n;
  n.labels_ = std::move(labels);
  n.validate();
  return n;
}

void Name::validate() const {
  for (const auto& l : labels_) {
    if (l.empty()) throw std::invalid_argument{"Name: empty label"};
    if (l.size() > kMaxLabelLength) {
      throw std::invalid_argument{"Name: label exceeds 63 octets"};
    }
  }
  if (wire_length() > kMaxNameWireLength) {
    throw std::invalid_argument{"Name: exceeds 255 octets"};
  }
}

std::size_t Name::wire_length() const noexcept {
  std::size_t len = 1;  // root byte
  for (const auto& l : labels_) len += 1 + l.size();
  return len;
}

std::string Name::to_string() const {
  if (labels_.empty()) return ".";
  std::string out;
  for (const auto& l : labels_) {
    for (const char c : l) {
      if (c == '.' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    out.push_back('.');
  }
  return out;
}

namespace {

int compare_labels(const std::string& a, const std::string& b) noexcept {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto ca = static_cast<unsigned char>(Name::to_lower(a[i]));
    const auto cb = static_cast<unsigned char>(Name::to_lower(b[i]));
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

}  // namespace

bool Name::equals(const Name& o) const noexcept {
  if (labels_.size() != o.labels_.size()) return false;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (compare_labels(labels_[i], o.labels_[i]) != 0) return false;
  }
  return true;
}

int Name::compare(const Name& o) const noexcept {
  // Right-to-left (least-specific label first), per canonical DNS order.
  std::size_t i = labels_.size();
  std::size_t j = o.labels_.size();
  while (i > 0 && j > 0) {
    const int c = compare_labels(labels_[i - 1], o.labels_[j - 1]);
    if (c != 0) return c;
    --i;
    --j;
  }
  if (i != j) return i < j ? -1 : 1;
  return 0;
}

bool Name::is_subdomain_of(const Name& ancestor) const noexcept {
  if (ancestor.labels_.size() > labels_.size()) return false;
  const std::size_t offset = labels_.size() - ancestor.labels_.size();
  for (std::size_t i = 0; i < ancestor.labels_.size(); ++i) {
    if (compare_labels(labels_[offset + i], ancestor.labels_[i]) != 0) {
      return false;
    }
  }
  return true;
}

Name Name::parent() const {
  if (labels_.empty()) return Name{};
  Name p;
  p.labels_.assign(labels_.begin() + 1, labels_.end());
  return p;
}

Name Name::prefixed(std::string_view label) const {
  Name n;
  n.labels_.reserve(labels_.size() + 1);
  n.labels_.emplace_back(label);
  n.labels_.insert(n.labels_.end(), labels_.begin(), labels_.end());
  n.validate();
  return n;
}

Name Name::concat(const Name& suffix) const {
  Name n;
  n.labels_.reserve(labels_.size() + suffix.labels_.size());
  n.labels_.insert(n.labels_.end(), labels_.begin(), labels_.end());
  n.labels_.insert(n.labels_.end(), suffix.labels_.begin(),
                   suffix.labels_.end());
  n.validate();
  return n;
}

std::size_t Name::hash() const noexcept {
  const std::size_t cached = hash_cache_.load(std::memory_order_relaxed);
  if (cached != 0) return cached;
  const std::size_t h = suffix_hash(labels_.size());
  hash_cache_.store(h, std::memory_order_relaxed);
  return h;
}

std::size_t Name::suffix_hash(std::size_t depth) const noexcept {
  // FNV-1a over lowered labels with separators.
  std::size_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = labels_.size() - depth; i < labels_.size(); ++i) {
    for (const char c : labels_[i]) {
      h ^= static_cast<unsigned char>(to_lower(c));
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  }
  if (h == 0) h = 0x9e3779b97f4a7c15ULL;  // keep 0 free as the sentinel
  return h;
}

}  // namespace recwild::dns
