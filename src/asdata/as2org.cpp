#include "asdata/as2org.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "net/error.h"

namespace mapit::asdata {

void As2Org::assign(Asn asn, OrgId org) {
  MAPIT_ENSURE(asn != kUnknownAsn, "cannot assign org to the unknown ASN");
  MAPIT_ENSURE(org != kNoOrg, "cannot assign the null organization");
  org_[asn] = org;
  next_org_ = std::max(next_org_, org + 1);
}

void As2Org::add_sibling_pair(Asn a, Asn b) {
  MAPIT_ENSURE(a != kUnknownAsn && b != kUnknownAsn,
               "sibling pair with unknown ASN");
  const OrgId org_a = org_of(a);
  const OrgId org_b = org_of(b);
  if (org_a == kNoOrg && org_b == kNoOrg) {
    const OrgId fresh = next_org_++;
    org_[a] = fresh;
    org_[b] = fresh;
    return;
  }
  if (org_a == kNoOrg) {
    org_[a] = org_b;
    return;
  }
  if (org_b == kNoOrg) {
    org_[b] = org_a;
    return;
  }
  if (org_a == org_b) return;
  // Merge the smaller-numbered org into the larger to keep this O(n) merge
  // deterministic regardless of call order.
  const OrgId keep = std::min(org_a, org_b);
  const OrgId drop = std::max(org_a, org_b);
  for (auto& [asn, org] : org_) {
    if (org == drop) org = keep;
  }
}

OrgId As2Org::org_of(Asn asn) const {
  auto it = org_.find(asn);
  return it == org_.end() ? kNoOrg : it->second;
}

bool As2Org::are_siblings(Asn a, Asn b) const {
  if (a == b) return true;
  const OrgId org_a = org_of(a);
  return org_a != kNoOrg && org_a == org_of(b);
}

std::uint64_t As2Org::group_key(Asn asn) const {
  const OrgId org = org_of(asn);
  if (org != kNoOrg) return std::uint64_t{org};
  // Singleton key, disjoint from org ids by the high bit.
  return (std::uint64_t{1} << 63) | std::uint64_t{asn};
}

std::vector<Asn> As2Org::members(OrgId org) const {
  std::vector<Asn> out;
  for (const auto& [asn, o] : org_) {
    if (o == org) out.push_back(asn);
  }
  std::sort(out.begin(), out.end());
  return out;
}

As2Org As2Org::read(std::istream& in) {
  As2Org result;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto bar = line.find('|');
    if (bar == std::string::npos) {
      throw ParseError("as2org line " + std::to_string(line_no) +
                       ": expected 'asn|org_id', got '" + line + "'");
    }
    try {
      const Asn asn = static_cast<Asn>(std::stoul(line.substr(0, bar)));
      const OrgId org = static_cast<OrgId>(std::stoul(line.substr(bar + 1)));
      result.assign(asn, org);
    } catch (const std::exception&) {
      throw ParseError("as2org line " + std::to_string(line_no) +
                       ": malformed number in '" + line + "'");
    }
  }
  check_read(in, "as2org");
  return result;
}

void As2Org::write(std::ostream& out) const {
  std::vector<std::pair<Asn, OrgId>> rows(org_.begin(), org_.end());
  std::sort(rows.begin(), rows.end());
  out << "# asn|org_id\n";
  for (const auto& [asn, org] : rows) out << asn << '|' << org << '\n';
}

}  // namespace mapit::asdata
