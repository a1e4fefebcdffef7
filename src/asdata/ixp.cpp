#include "asdata/ixp.h"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>

#include "net/error.h"

namespace mapit::asdata {

void IxpRegistry::add_prefix(const net::Prefix& prefix, IxpId id) {
  prefixes_.insert(prefix, id);
}

void IxpRegistry::add_ixp_asn(Asn asn) {
  MAPIT_ENSURE(asn != kUnknownAsn, "IXP ASN cannot be the unknown ASN");
  asns_.insert(asn);
}

IxpRegistry IxpRegistry::read(std::istream& in) {
  IxpRegistry result;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto bar = line.find('|');
    if (bar == std::string::npos) {
      throw ParseError("ixp line " + std::to_string(line_no) +
                       ": expected 'prefix|id' or 'asn|A', got '" + line + "'");
    }
    const std::string left = line.substr(0, bar);
    const std::string right = line.substr(bar + 1);
    try {
      if (!right.empty() && right[0] == 'A') {
        result.add_ixp_asn(static_cast<Asn>(std::stoul(left)));
      } else {
        result.add_prefix(net::Prefix::parse_or_throw(left),
                          static_cast<IxpId>(std::stoul(right)));
      }
    } catch (const ParseError&) {
      throw;
    } catch (const std::exception&) {
      throw ParseError("ixp line " + std::to_string(line_no) +
                       ": malformed record '" + line + "'");
    }
  }
  check_read(in, "ixps");
  return result;
}

void IxpRegistry::write(std::ostream& out) const {
  out << "# prefix|ixp_id ; asn|A\n";
  std::map<net::Prefix, IxpId> ordered;
  prefixes_.for_each(
      [&](const net::Prefix& p, const IxpId& id) { ordered.emplace(p, id); });
  for (const auto& [prefix, id] : ordered) {
    out << prefix.to_string() << '|' << id << '\n';
  }
  std::vector<Asn> asns(asns_.begin(), asns_.end());
  std::sort(asns.begin(), asns.end());
  for (Asn asn : asns) out << asn << "|A\n";
}

}  // namespace mapit::asdata
