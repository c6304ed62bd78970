#include "dpl/host.hpp"

#include "common/log.hpp"

namespace attain::dpl {

Host::Host(sim::Scheduler& sched, std::string name, pkt::MacAddress mac, pkt::Ipv4Address ip)
    : sched_(sched), name_(std::move(name)), mac_(mac), ip_(ip) {}

void Host::set_sender(std::function<void(pkt::Packet)> send) { send_ = std::move(send); }

void Host::set_icmp_echo_handler(std::function<void(const pkt::Packet&)> handler) {
  icmp_echo_handler_ = std::move(handler);
}

void Host::register_tcp_port(std::uint16_t port, std::function<void(const pkt::Packet&)> handler) {
  tcp_ports_[port] = std::move(handler);
}

void Host::transmit(pkt::Packet packet) {
  ++counters_.packets_sent;
  if (send_) send_(std::move(packet));
}

void Host::on_packet(const pkt::Packet& packet) {
  if (packet.eth.dst != mac_ && !packet.eth.dst.is_broadcast() && !packet.eth.dst.is_multicast()) {
    return;  // not for us (flooded unicast to another host)
  }
  ++counters_.packets_received;

  if (packet.arp) {
    on_arp(*packet.arp);
    return;
  }
  if (!packet.ipv4 || packet.ipv4->dst != ip_) return;

  if (packet.icmp) {
    if (packet.icmp->type == pkt::IcmpType::EchoRequest) {
      ++counters_.echo_replies_sent;
      pkt::Packet reply = pkt::make_icmp_echo(mac_, packet.eth.src, ip_, packet.ipv4->src,
                                              pkt::IcmpType::EchoReply, packet.icmp->id,
                                              packet.icmp->seq, packet.payload_tag);
      transmit(std::move(reply));
    } else if (icmp_echo_handler_) {
      icmp_echo_handler_(packet);
    }
    return;
  }
  if (packet.tcp) {
    const auto it = tcp_ports_.find(packet.tcp->dst_port);
    if (it != tcp_ports_.end()) it->second(packet);
    return;
  }
}

void Host::defer_send(pkt::Ipv4Address dst_ip, std::function<pkt::Packet(pkt::MacAddress)> build) {
  arp_pending_[dst_ip.value].push_back(PendingSend{dst_ip, std::move(build)});
  if (!arp_timers_.contains(dst_ip.value)) start_arp(dst_ip);
}

void Host::start_arp(pkt::Ipv4Address dst_ip) {
  ++counters_.arp_requests_sent;
  transmit(pkt::make_arp_request(mac_, ip_, dst_ip));
  arp_timers_[dst_ip.value] =
      sched_.after(kArpTimeout, [this, dst_ip] { arp_timer(dst_ip, 1); });
}

void Host::arp_timer(pkt::Ipv4Address dst_ip, unsigned attempt) {
  if (arp_cache_.contains(dst_ip.value)) return;  // resolved meanwhile
  if (attempt >= kArpRetries) {
    ATTAIN_LOG(Debug, name_) << "ARP resolution failed for " << dst_ip.to_string();
    auto& queue = arp_pending_[dst_ip.value];
    counters_.arp_failures += queue.size();
    queue.clear();
    arp_timers_.erase(dst_ip.value);
    return;
  }
  ++counters_.arp_requests_sent;
  transmit(pkt::make_arp_request(mac_, ip_, dst_ip));
  arp_timers_[dst_ip.value] =
      sched_.after(kArpTimeout, [this, dst_ip, attempt] { arp_timer(dst_ip, attempt + 1); });
}

void Host::on_arp(const pkt::ArpHeader& arp) {
  // Opportunistic learning from any ARP we see addressed to us.
  if (arp.op == pkt::ArpOp::Request) {
    if (arp.target_ip == ip_) {
      arp_cache_[arp.sender_ip.value] = arp.sender_mac;
      ++counters_.arp_replies_sent;
      transmit(pkt::make_arp_reply(mac_, ip_, arp.sender_mac, arp.sender_ip));
    }
    return;
  }
  // ARP reply: cache and flush pending sends.
  arp_cache_[arp.sender_ip.value] = arp.sender_mac;
  const auto timer = arp_timers_.find(arp.sender_ip.value);
  if (timer != arp_timers_.end()) {
    timer->second.cancel();
    arp_timers_.erase(timer);
  }
  auto pending = arp_pending_.find(arp.sender_ip.value);
  if (pending != arp_pending_.end()) {
    for (PendingSend& send : pending->second) {
      transmit(send.build(arp.sender_mac));
    }
    arp_pending_.erase(pending);
  }
}

}  // namespace attain::dpl
