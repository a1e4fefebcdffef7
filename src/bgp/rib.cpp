#include "bgp/rib.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "net/error.h"
#include "net/parse.h"

namespace mapit::bgp {

CollectorId Rib::add_collector(const std::string& name) {
  if (auto it = collector_ids_.find(name); it != collector_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<CollectorId>(collector_names_.size());
  collector_names_.push_back(name);
  collector_ids_.emplace(name, id);
  return id;
}

void Rib::add_announcement(CollectorId collector, const net::Prefix& prefix,
                           asdata::Asn origin) {
  MAPIT_ENSURE(collector < collector_names_.size(), "unregistered collector");
  MAPIT_ENSURE(origin != asdata::kUnknownAsn,
               "announcement with unknown origin");
  auto& bitmap = origins_[prefix].seen_by[origin];
  if (bitmap.size() <= collector) bitmap.resize(collector_names_.size());
  if (!bitmap[collector]) {
    bitmap[collector] = true;
    ++count_;
  }
}

net::PrefixTrie<asdata::Asn> Rib::consolidate() const {
  net::PrefixTrie<asdata::Asn> table;
  for (const auto& [prefix, votes] : origins_) {
    asdata::Asn best = asdata::kUnknownAsn;
    std::size_t best_votes = 0;
    for (const auto& [origin, bitmap] : votes.seen_by) {
      const auto n = static_cast<std::size_t>(
          std::count(bitmap.begin(), bitmap.end(), true));
      // std::map iteration is ascending by ASN, so strictly-greater keeps
      // the lowest ASN on ties.
      if (n > best_votes) {
        best_votes = n;
        best = origin;
      }
    }
    if (best != asdata::kUnknownAsn) table.insert(prefix, best);
  }
  return table;
}

std::vector<net::Prefix> Rib::moas_prefixes() const {
  std::vector<net::Prefix> out;
  for (const auto& [prefix, votes] : origins_) {
    if (votes.seen_by.size() > 1) out.push_back(prefix);
  }
  return out;
}

std::vector<Announcement> Rib::announcements() const {
  std::vector<Announcement> out;
  out.reserve(count_);
  for (const auto& [prefix, votes] : origins_) {
    for (const auto& [origin, bitmap] : votes.seen_by) {
      for (std::size_t c = 0; c < bitmap.size(); ++c) {
        if (bitmap[c]) {
          out.push_back({static_cast<CollectorId>(c), prefix, origin});
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Rib Rib::read(std::istream& in, LoadReport* report) {
  Rib rib;
  std::string line;
  std::size_t line_no = 0;
  std::size_t line_offset = 0;
  std::size_t loaded = 0;
  // Line number for humans, byte offset so a crashing input (fuzzer
  // finding, corrupt dump) maps straight to the offending bytes.
  const auto where = [&line_no, &line_offset] {
    return "rib line " + std::to_string(line_no) + " (byte " +
           std::to_string(line_offset) + ")";
  };
  // Parses + applies one payload line; throws ParseError on any damage.
  // The prefix and origin are parsed BEFORE the collector is registered,
  // so a rejected line leaves the Rib completely untouched — lenient mode
  // must not leak collector ids from quarantined lines.
  const auto load_line = [&rib, &line, &where] {
    const auto bar1 = line.find('|');
    const auto bar2 = bar1 == std::string::npos ? std::string::npos
                                                : line.find('|', bar1 + 1);
    if (bar2 == std::string::npos) {
      throw ParseError(where() + ": expected 'collector|prefix|asn', got '" +
                       line + "'");
    }
    try {
      const net::Prefix prefix =
          net::Prefix::parse_or_throw(line.substr(bar1 + 1, bar2 - bar1 - 1));
      const auto origin =
          net::parse_uint<asdata::Asn>(std::string_view(line).substr(bar2 + 1));
      if (!origin) {
        throw ParseError("bad origin ASN '" + line.substr(bar2 + 1) + "'");
      }
      MAPIT_ENSURE(*origin != asdata::kUnknownAsn,
                   "announcement with unknown origin");
      const CollectorId collector = rib.add_collector(line.substr(0, bar1));
      rib.add_announcement(collector, prefix, *origin);
    } catch (const ParseError& e) {
      // Prefix parse errors carry no position; add the line number so the
      // caller (and the LoadReport) can name the offender.
      throw ParseError(where() + ": " + e.what());
    } catch (const std::exception&) {
      throw ParseError(where() + ": malformed record '" + line + "'");
    }
  };
  while (std::getline(in, line)) {
    ++line_no;
    // getline consumed the line plus one '\n'; remember where it started.
    const std::size_t next_offset = line_offset + line.size() + 1;
    if (line.empty() || line[0] == '#') {
      line_offset = next_offset;
      continue;
    }
    if (report == nullptr) {
      load_line();
      ++loaded;
    } else {
      try {
        load_line();
        ++loaded;
      } catch (const ParseError& e) {
        report->record(line_no, line_offset, e.what());
      }
    }
    line_offset = next_offset;
  }
  check_read(in, "rib");
  if (report != nullptr) report->add_loaded(loaded);
  return rib;
}

void Rib::write(std::ostream& out) const {
  out << "# collector|prefix|origin_asn\n";
  for (const Announcement& a : announcements()) {
    out << collector_names_[a.collector] << '|' << a.prefix.to_string() << '|'
        << a.origin << '\n';
  }
}

}  // namespace mapit::bgp
