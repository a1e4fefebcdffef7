#include "topo/truth_io.h"

#include <istream>
#include <ostream>
#include <string>

#include "net/error.h"

namespace mapit::topo {

void write_true_links(std::ostream& out, const std::vector<TrueLink>& links) {
  out << "# addr_a|addr_b|as_a|as_b[|ixp]\n";
  for (const TrueLink& link : links) {
    out << link.addr_a.to_string() << '|' << link.addr_b.to_string() << '|'
        << link.as_a << '|' << link.as_b;
    if (link.via_ixp) out << "|ixp";
    out << '\n';
  }
}

std::vector<TrueLink> read_true_links(std::istream& in) {
  std::vector<TrueLink> out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
      const std::size_t pos = line.find('|', start);
      if (pos == std::string::npos) {
        fields.push_back(line.substr(start));
        break;
      }
      fields.push_back(line.substr(start, pos - start));
      start = pos + 1;
    }
    if (fields.size() != 4 && fields.size() != 5) {
      throw ParseError("truth line " + std::to_string(line_no) +
                       ": expected 4 or 5 fields, got " +
                       std::to_string(fields.size()));
    }
    try {
      TrueLink link;
      link.addr_a = net::Ipv4Address::parse_or_throw(fields[0]);
      link.addr_b = net::Ipv4Address::parse_or_throw(fields[1]);
      link.as_a = static_cast<asdata::Asn>(std::stoul(fields[2]));
      link.as_b = static_cast<asdata::Asn>(std::stoul(fields[3]));
      if (fields.size() == 5) {
        if (fields[4] != "ixp") {
          throw ParseError("unknown flag '" + fields[4] + "'");
        }
        link.via_ixp = true;
      }
      out.push_back(link);
    } catch (const ParseError& e) {
      throw ParseError("truth line " + std::to_string(line_no) + ": " +
                       e.what());
    } catch (const std::exception&) {
      throw ParseError("truth line " + std::to_string(line_no) +
                       ": malformed number in '" + line + "'");
    }
  }
  check_read(in, "truth");
  return out;
}

}  // namespace mapit::topo
