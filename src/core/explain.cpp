#include "core/explain.h"

#include <sstream>

namespace mapit::core {

namespace {

void describe_asn(std::ostream& out, asdata::Asn asn) {
  if (asn == asdata::kUnknownAsn) {
    out << "unannounced";
  } else {
    out << "AS" << asn;
  }
}

void describe_half(std::ostream& out, const Result& result,
                   const graph::InterfaceGraph& graph,
                   const bgp::Ip2As& ip2as, const graph::InterfaceHalf& half) {
  const auto& neighbors = graph.neighbors(half);
  out << half.to_string() << "  ("
      << (half.direction == graph::Direction::kForward
              ? "forward neighbours N_F"
              : "backward neighbours N_B")
      << ", " << neighbors.size() << " unique)\n";

  const graph::Direction nd = opposite(half.direction);
  for (net::Ipv4Address neighbor : neighbors) {
    const graph::InterfaceHalf nh{neighbor, nd};
    out << "    " << nh.to_string() << "  origin ";
    describe_asn(out, ip2as.origin(neighbor));
    if (const auto refined = result.final_mapping(nh)) {
      out << ", refined to ";
      describe_asn(out, *refined);
    }
    out << "\n";
  }

  const Inference* confident = result.find(half);
  if (confident != nullptr) {
    out << "    => " << confident->to_string() << "  [" << confident->votes
        << "/" << confident->neighbor_count << " neighbours agree]\n";
    return;
  }
  for (const Inference& inference : result.uncertain) {
    if (inference.half == half) {
      out << "    => UNCERTAIN: " << inference.to_string() << "\n";
      return;
    }
  }
  if (neighbors.size() < 2) {
    out << "    => no inference (fewer than two neighbour addresses, §4.3)\n";
  } else {
    out << "    => no inference (no qualifying foreign-AS majority)\n";
  }
}

}  // namespace

std::string explain(const Result& result, const graph::InterfaceGraph& graph,
                    const bgp::Ip2As& ip2as, net::Ipv4Address address) {
  std::ostringstream out;
  out << "interface " << address.to_string() << "  origin ";
  describe_asn(out, ip2as.origin(address));
  const graph::InterfaceRecord* record = graph.find(address);
  if (record == nullptr) {
    out << "\n  never seen adjacent to another address in the corpus\n";
    return out.str();
  }
  const graph::OtherSide other = record->other_side;
  out << ", other side " << other.address.to_string() << " ("
      << (other.inference == graph::PrefixInference::kSlash30
              ? "/30 assumed"
          : other.inference == graph::PrefixInference::kSlash31Witness
              ? "/31 by witness"
              : "/31, reserved /30 slot")
      << ")\n";
  out << "  ";
  describe_half(out, result, graph, ip2as,
                {address, graph::Direction::kForward});
  out << "  ";
  describe_half(out, result, graph, ip2as,
                {address, graph::Direction::kBackward});
  return out.str();
}

}  // namespace mapit::core
