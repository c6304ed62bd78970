#include "ctl/floodlight.hpp"

#include <algorithm>
#include <deque>

#include "common/log.hpp"
#include "packet/codec.hpp"

namespace attain::ctl {

void FloodlightForwarding::on_switch_ready(ConnHandle conn) {
  conn_by_dpid_[dpid_of(conn)] = conn;
  send_lldp_probes(conn);
}

void FloodlightForwarding::send_lldp_probes(ConnHandle conn) {
  if (!handshake_complete(conn)) {
    // The switch reconnect machinery will call on_switch_ready again.
    return;
  }
  const std::uint64_t dpid = dpid_of(conn);
  for (const ofp::PhyPort& port : ports_of(conn)) {
    ofp::PacketOut out;
    out.buffer_id = ofp::kNoBuffer;
    out.in_port = static_cast<std::uint16_t>(ofp::Port::None);
    out.actions = ofp::output_to(port.port_no);
    out.data = pkt::encode(pkt::make_lldp(port.hw_addr, dpid, port.port_no));
    ++lldp_probes_sent_;
    send(conn, ofp::make_message(next_xid(), std::move(out)));
  }
  sched().after(kLldpInterval, [this, conn] { send_lldp_probes(conn); });
}

void FloodlightForwarding::on_packet_in(ConnHandle conn, const ofp::PacketIn& pin) {
  pkt::Packet packet;
  try {
    packet = pkt::decode(pin.data);
  } catch (const DecodeError&) {
    return;
  }
  const std::uint64_t dpid = dpid_of(conn);
  const PortRef here{dpid, pin.in_port};

  // Link discovery: an LLDP probe arriving here reveals the link
  // (origin -> here). The frame is consumed (never forwarded).
  {
    std::uint64_t origin_dpid = 0;
    std::uint16_t origin_port = 0;
    if (pkt::parse_lldp(packet, origin_dpid, origin_port)) {
      const PortRef origin{origin_dpid, origin_port};
      if (!links_.contains(origin) || links_.at(origin) != here) {
        links_[origin] = here;
        routes_.clear();
        ATTAIN_LOG(Debug, name()) << "discovered link dpid" << origin_dpid << ":" << origin_port
                                  << " -> dpid" << dpid << ":" << pin.in_port;
      }
      return;
    }
  }

  // Device manager: learn attachment points at the network edge only
  // (ports with a discovered link are switch-to-switch).
  if (!is_internal_port(here)) {
    device_table_[packet.eth.src.to_u64()] = here;
  }

  auto flood_here = [&] {
    ofp::PacketOut out;
    out.buffer_id = pin.buffer_id;
    out.in_port = pin.in_port;
    out.actions = ofp::output_to(ofp::Port::Flood);
    if (pin.buffer_id == ofp::kNoBuffer) out.data = pin.data;
    send(conn, ofp::make_message(next_xid(), std::move(out)));
  };

  const auto dst_it = device_table_.find(packet.eth.dst.to_u64());
  if (packet.eth.dst.is_multicast() || dst_it == device_table_.end()) {
    flood_here();
    return;
  }

  // Route from the *source's* attachment point (the route is installed for
  // the whole stream, not just from the PACKET_IN switch, mirroring
  // Floodlight's route push) toward the destination attachment point.
  const auto src_it = device_table_.find(packet.eth.src.to_u64());
  const PortRef src_ap = src_it != device_table_.end() ? src_it->second : here;
  const mem::vector<PathHop> hops = route(src_ap, dst_it->second);
  if (hops.empty()) {
    flood_here();
    return;
  }

  // The PACKET_IN may come from any switch along the route (e.g. a
  // downstream switch missing after an upstream PACKET_OUT); release the
  // packet out of *this* switch's hop.
  const auto here_hop = std::find_if(hops.begin(), hops.end(),
                                     [&](const PathHop& h) { return h.dpid == dpid; });
  if (here_hop == hops.end()) {
    flood_here();
    return;
  }

  // Push the route tail-to-head (Floodlight installs from the destination
  // switch backwards so the path is ready when the packet is released).
  for (auto hop = hops.rbegin(); hop != hops.rend(); ++hop) {
    const auto hop_conn = conn_by_dpid_.find(hop->dpid);
    if (hop_conn == conn_by_dpid_.end()) continue;
    ofp::FlowMod mod;
    mod.match = ofp::Match::from_packet(packet, hop->in_port);
    mod.command = ofp::FlowModCommand::Add;
    mod.idle_timeout = kIdleTimeout;
    mod.hard_timeout = 0;
    mod.priority = 1;  // FLOWMOD_DEFAULT_PRIORITY
    mod.buffer_id = ofp::kNoBuffer;
    mod.actions = ofp::output_to(hop->out_port);
    send(hop_conn->second, ofp::make_message(next_xid(), std::move(mod)));
  }

  // Release the triggering packet at the PACKET_IN switch.
  ofp::PacketOut out;
  out.buffer_id = pin.buffer_id;
  out.in_port = pin.in_port;
  out.actions = ofp::output_to(here_hop->out_port);
  if (pin.buffer_id == ofp::kNoBuffer) out.data = pin.data;
  send(conn, ofp::make_message(next_xid(), std::move(out)));
}

void FloodlightForwarding::on_port_status(ConnHandle conn, const ofp::PortStatus& status) {
  const bool down =
      status.reason == ofp::PortReason::Delete || (status.desc.state & 0x1) != 0;
  if (!down) return;  // a returning port is re-learned by the next probes
  const PortRef here{dpid_of(conn), status.desc.port_no};
  links_.erase(here);
  std::erase_if(links_, [&](const auto& entry) { return entry.second == here; });
  routes_.clear();
  std::erase_if(device_table_, [&](const auto& entry) { return entry.second == here; });
  ATTAIN_LOG(Debug, name()) << "port down: dpid" << here.dpid << ":" << here.port
                            << "; purged topology state";
}

mem::vector<FloodlightForwarding::PathHop> FloodlightForwarding::route(PortRef from, PortRef to) {
  auto [cached, inserted] = routes_.try_emplace({from.dpid, to.dpid});
  if (inserted) cached->second = bfs(from.dpid, to.dpid);
  mem::vector<PathHop> path = cached->second;
  if (!path.empty()) {
    path.front().in_port = from.port;
    path.back().out_port = to.port;
  }
  return path;
}

mem::vector<FloodlightForwarding::PathHop> FloodlightForwarding::bfs(
    std::uint64_t from_dpid, std::uint64_t to_dpid) const {
  if (from_dpid == to_dpid) return {PathHop{from_dpid, 0, 0}};
  struct Visit {
    std::uint64_t prev_dpid;
    std::uint16_t prev_out_port;
    std::uint16_t in_port;
  };
  std::map<std::uint64_t, Visit> visited;
  visited[from_dpid] = Visit{from_dpid, 0, 0};
  std::deque<std::uint64_t> frontier{from_dpid};
  while (!frontier.empty()) {
    const std::uint64_t dpid = frontier.front();
    frontier.pop_front();
    if (dpid == to_dpid) break;
    for (const auto& [a, b] : links_) {
      if (a.dpid != dpid || visited.contains(b.dpid)) continue;
      visited[b.dpid] = Visit{dpid, a.port, b.port};
      frontier.push_back(b.dpid);
    }
  }
  if (!visited.contains(to_dpid)) return {};

  mem::vector<PathHop> path;
  std::uint64_t dpid = to_dpid;
  std::uint16_t out_port = 0;
  while (true) {
    const Visit& v = visited.at(dpid);
    path.push_back(PathHop{dpid, v.in_port, out_port});
    if (dpid == from_dpid) break;
    out_port = v.prev_out_port;
    dpid = v.prev_dpid;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace attain::ctl
