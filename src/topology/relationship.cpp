#include "topology/relationship.hpp"

#include <algorithm>

namespace htor {

Relationship reverse(Relationship rel) {
  switch (rel) {
    case Relationship::P2C: return Relationship::C2P;
    case Relationship::C2P: return Relationship::P2C;
    case Relationship::P2P: return Relationship::P2P;
    case Relationship::S2S: return Relationship::S2S;
    case Relationship::Unknown: return Relationship::Unknown;
  }
  return Relationship::Unknown;
}

const char* to_string(Relationship rel) {
  switch (rel) {
    case Relationship::P2C: return "p2c";
    case Relationship::C2P: return "c2p";
    case Relationship::P2P: return "p2p";
    case Relationship::S2S: return "s2s";
    case Relationship::Unknown: return "unknown";
  }
  return "?";
}

void RelationshipMap::set(Asn a, Asn b, Relationship rel) {
  const LinkKey key(a, b);
  const Relationship canonical = (key.first == a) ? rel : reverse(rel);
  auto [it, inserted] = entries_.insert_or_assign(key, canonical);
  (void)it;
  if (inserted) {
    index_add(a, b);
    index_add(b, a);
  }
}

void RelationshipMap::erase(Asn a, Asn b) {
  if (entries_.erase(LinkKey(a, b)) == 0) return;
  index_remove(a, b);
  index_remove(b, a);
}

void RelationshipMap::index_add(Asn a, Asn b) { adjacency_[a].push_back(b); }

void RelationshipMap::index_remove(Asn a, Asn b) {
  auto it = adjacency_.find(a);
  if (it == adjacency_.end()) return;
  auto& nbrs = it->second;
  const auto pos = std::find(nbrs.begin(), nbrs.end(), b);
  if (pos != nbrs.end()) nbrs.erase(pos);
  if (nbrs.empty()) adjacency_.erase(it);
}

Relationship RelationshipMap::get(Asn a, Asn b) const {
  const LinkKey key(a, b);
  auto it = entries_.find(key);
  if (it == entries_.end()) return Relationship::Unknown;
  return key.first == a ? it->second : reverse(it->second);
}

void RelationshipMap::for_each(
    const std::function<void(const LinkKey&, Relationship)>& fn) const {
  for (const auto& [key, rel] : entries_) fn(key, rel);
}

std::vector<Asn> RelationshipMap::customers(Asn asn) const {
  std::vector<Asn> out;
  auto it = adjacency_.find(asn);
  if (it == adjacency_.end()) return out;
  for (Asn nbr : it->second) {
    if (get(asn, nbr) == Relationship::P2C) out.push_back(nbr);
  }
  return out;
}

std::vector<Asn> RelationshipMap::providers(Asn asn) const {
  std::vector<Asn> out;
  auto it = adjacency_.find(asn);
  if (it == adjacency_.end()) return out;
  for (Asn nbr : it->second) {
    if (get(asn, nbr) == Relationship::C2P) out.push_back(nbr);
  }
  return out;
}

std::vector<Asn> RelationshipMap::peers(Asn asn) const {
  std::vector<Asn> out;
  auto it = adjacency_.find(asn);
  if (it == adjacency_.end()) return out;
  for (Asn nbr : it->second) {
    if (get(asn, nbr) == Relationship::P2P) out.push_back(nbr);
  }
  return out;
}

RelationshipMap::Counts RelationshipMap::counts() const {
  Counts c;
  for (const auto& [key, rel] : entries_) {
    (void)key;
    switch (rel) {
      case Relationship::P2C:
      case Relationship::C2P: ++c.transit; break;
      case Relationship::P2P: ++c.peering; break;
      case Relationship::S2S: ++c.sibling; break;
      case Relationship::Unknown: ++c.unknown; break;
    }
  }
  return c;
}

}  // namespace htor
