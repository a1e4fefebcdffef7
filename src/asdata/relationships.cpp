#include "asdata/relationships.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "net/error.h"

namespace mapit::asdata {

namespace {
const std::unordered_set<Asn>& empty_set() {
  static const std::unordered_set<Asn> empty;
  return empty;
}
}  // namespace

const char* to_string(Relationship relationship) {
  switch (relationship) {
    case Relationship::kNone: return "none";
    case Relationship::kProvider: return "provider";
    case Relationship::kCustomer: return "customer";
    case Relationship::kPeer: return "peer";
  }
  return "?";
}

const char* to_string(LinkClass link_class) {
  switch (link_class) {
    case LinkClass::kIspTransit: return "ISP Transit";
    case LinkClass::kPeer: return "Peer";
    case LinkClass::kStubTransit: return "Stub Transit";
  }
  return "?";
}

void AsRelationships::add_transit(Asn provider, Asn customer) {
  MAPIT_ENSURE(provider != kUnknownAsn && customer != kUnknownAsn,
               "transit edge with unknown ASN");
  MAPIT_ENSURE(provider != customer, "transit edge from an AS to itself");
  if (customers_[provider].insert(customer).second) ++transit_count_;
  providers_[customer].insert(provider);
}

void AsRelationships::add_peering(Asn a, Asn b) {
  MAPIT_ENSURE(a != kUnknownAsn && b != kUnknownAsn,
               "peering edge with unknown ASN");
  MAPIT_ENSURE(a != b, "peering edge from an AS to itself");
  if (peers_[a].insert(b).second) ++peering_count_;
  peers_[b].insert(a);
}

Relationship AsRelationships::relationship(Asn a, Asn b) const {
  if (auto it = customers_.find(a);
      it != customers_.end() && it->second.contains(b)) {
    return Relationship::kProvider;
  }
  if (auto it = providers_.find(a);
      it != providers_.end() && it->second.contains(b)) {
    return Relationship::kCustomer;
  }
  if (auto it = peers_.find(a); it != peers_.end() && it->second.contains(b)) {
    return Relationship::kPeer;
  }
  return Relationship::kNone;
}

bool AsRelationships::known(Asn asn) const {
  return providers_.contains(asn) || customers_.contains(asn) ||
         peers_.contains(asn);
}

bool AsRelationships::is_stub(Asn asn) const {
  auto it = customers_.find(asn);
  return it == customers_.end() || it->second.empty();
}

bool AsRelationships::is_isp(Asn asn, const As2Org& orgs) const {
  auto it = customers_.find(asn);
  if (it == customers_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(), [&](Asn customer) {
    return !orgs.are_siblings(asn, customer);
  });
}

LinkClass AsRelationships::classify_link(Asn a, Asn b,
                                         const As2Org& orgs) const {
  // Paper §5.4: "If an AS does not appear in the relationship dataset we
  // classify the relationship as Stub Transit, and if there is no transit
  // link between the ASes then we classify the relationship as Peer."
  if (!known(a) || !known(b)) return LinkClass::kStubTransit;
  const Relationship rel = relationship(a, b);
  if (rel == Relationship::kProvider) {
    return is_isp(b, orgs) ? LinkClass::kIspTransit : LinkClass::kStubTransit;
  }
  if (rel == Relationship::kCustomer) {
    return is_isp(a, orgs) ? LinkClass::kIspTransit : LinkClass::kStubTransit;
  }
  return LinkClass::kPeer;
}

const std::unordered_set<Asn>& AsRelationships::providers_of(Asn asn) const {
  auto it = providers_.find(asn);
  return it == providers_.end() ? empty_set() : it->second;
}

const std::unordered_set<Asn>& AsRelationships::customers_of(Asn asn) const {
  auto it = customers_.find(asn);
  return it == customers_.end() ? empty_set() : it->second;
}

const std::unordered_set<Asn>& AsRelationships::peers_of(Asn asn) const {
  auto it = peers_.find(asn);
  return it == peers_.end() ? empty_set() : it->second;
}

std::vector<Asn> AsRelationships::all_ases() const {
  std::unordered_set<Asn> seen;
  for (const auto* map : {&providers_, &customers_, &peers_}) {
    for (const auto& [asn, _] : *map) seen.insert(asn);
  }
  std::vector<Asn> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

AsRelationships AsRelationships::read(std::istream& in) {
  AsRelationships result;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto bar1 = line.find('|');
    const auto bar2 = bar1 == std::string::npos ? std::string::npos
                                                : line.find('|', bar1 + 1);
    if (bar2 == std::string::npos) {
      throw ParseError("relationships line " + std::to_string(line_no) +
                       ": expected 'a|b|type', got '" + line + "'");
    }
    try {
      const Asn a = static_cast<Asn>(std::stoul(line.substr(0, bar1)));
      const Asn b =
          static_cast<Asn>(std::stoul(line.substr(bar1 + 1, bar2 - bar1 - 1)));
      const int type = std::stoi(line.substr(bar2 + 1));
      if (type == -1) {
        result.add_transit(a, b);
      } else if (type == 0) {
        result.add_peering(a, b);
      } else {
        throw ParseError("relationships line " + std::to_string(line_no) +
                         ": unknown relationship type " + std::to_string(type));
      }
    } catch (const ParseError&) {
      throw;
    } catch (const std::exception&) {
      throw ParseError("relationships line " + std::to_string(line_no) +
                       ": malformed number in '" + line + "'");
    }
  }
  check_read(in, "relationships");
  return result;
}

void AsRelationships::write(std::ostream& out) const {
  out << "# provider|customer|-1 ; peer|peer|0\n";
  std::vector<std::pair<Asn, Asn>> transit;
  for (const auto& [provider, customers] : customers_) {
    for (Asn customer : customers) transit.emplace_back(provider, customer);
  }
  std::sort(transit.begin(), transit.end());
  for (const auto& [provider, customer] : transit) {
    out << provider << '|' << customer << "|-1\n";
  }
  std::vector<std::pair<Asn, Asn>> peerings;
  for (const auto& [a, peers] : peers_) {
    for (Asn b : peers) {
      if (a < b) peerings.emplace_back(a, b);
    }
  }
  std::sort(peerings.begin(), peerings.end());
  for (const auto& [a, b] : peerings) out << a << '|' << b << "|0\n";
}

}  // namespace mapit::asdata
