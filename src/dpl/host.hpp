// Simulated end host: an Ethernet/IP stack with ARP resolution, ICMP echo
// responding, and a registry of TCP port handlers used by the iperf-like
// application. Hosts are the traffic sources/sinks of the paper's
// evaluation workloads.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "common/arena.hpp"
#include "common/types.hpp"
#include "packet/packet.hpp"
#include "sim/scheduler.hpp"

namespace attain::dpl {

struct HostStackCounters {
  std::uint64_t packets_sent{0};
  std::uint64_t packets_received{0};
  std::uint64_t arp_requests_sent{0};
  std::uint64_t arp_replies_sent{0};
  std::uint64_t arp_failures{0};
  std::uint64_t echo_replies_sent{0};
};

class Host {
 public:
  Host(sim::Scheduler& sched, std::string name, pkt::MacAddress mac, pkt::Ipv4Address ip);

  /// Wires the uplink toward the attached switch.
  void set_sender(std::function<void(pkt::Packet)> send);

  /// Delivers a frame from the attached switch. Frames not addressed to
  /// this host (unicast to another MAC) are dropped, mirroring a NIC
  /// without promiscuous mode.
  void on_packet(const pkt::Packet& packet);

  /// Sends an IP packet to `dst_ip`, resolving the destination MAC first
  /// (ARP with retry). `build` receives the resolved MAC and must return
  /// the complete packet. On resolution failure the send is dropped and
  /// counted in arp_failures. With the MAC cached, `build` runs at once and
  /// nothing is allocated; only a send that waits for ARP stores it.
  template <typename Build>
  void send_ip(pkt::Ipv4Address dst_ip, Build&& build) {
    const auto cached = arp_cache_.find(dst_ip.value);
    if (cached != arp_cache_.end()) {
      transmit(build(cached->second));
      return;
    }
    defer_send(dst_ip, std::forward<Build>(build));
  }

  /// Handlers for inbound traffic. ICMP echo *replies* land on the echo
  /// handler (requests are answered by the stack itself); TCP segments
  /// land on the handler registered for their destination port.
  void set_icmp_echo_handler(std::function<void(const pkt::Packet&)> handler);
  void register_tcp_port(std::uint16_t port, std::function<void(const pkt::Packet&)> handler);

  const std::string& name() const { return name_; }
  pkt::MacAddress mac() const { return mac_; }
  pkt::Ipv4Address ip() const { return ip_; }
  const HostStackCounters& counters() const { return counters_; }
  sim::Scheduler& scheduler() { return sched_; }

  /// Injects a static ARP entry (used by tests).
  void add_arp_entry(pkt::Ipv4Address ip, pkt::MacAddress mac) { arp_cache_[ip.value] = mac; }

 private:
  struct PendingSend {
    pkt::Ipv4Address dst_ip;
    std::function<pkt::Packet(pkt::MacAddress)> build;
  };

  void transmit(pkt::Packet packet);
  /// Queues a send until ARP resolves `dst_ip`, starting resolution if
  /// none is in flight.
  void defer_send(pkt::Ipv4Address dst_ip, std::function<pkt::Packet(pkt::MacAddress)> build);
  void start_arp(pkt::Ipv4Address dst_ip);
  void on_arp(const pkt::ArpHeader& arp);
  void arp_timer(pkt::Ipv4Address dst_ip, unsigned attempt);

  sim::Scheduler& sched_;
  std::string name_;
  pkt::MacAddress mac_;
  pkt::Ipv4Address ip_;
  std::function<void(pkt::Packet)> send_;
  std::function<void(const pkt::Packet&)> icmp_echo_handler_;
  mem::map<std::uint16_t, std::function<void(const pkt::Packet&)>> tcp_ports_;

  mem::map<std::uint32_t, pkt::MacAddress> arp_cache_;
  mem::map<std::uint32_t, mem::deque<PendingSend>> arp_pending_;
  mem::map<std::uint32_t, sim::EventHandle> arp_timers_;
  HostStackCounters counters_;

  static constexpr SimTime kArpTimeout = 1 * kSecond;
  static constexpr unsigned kArpRetries = 3;
};

}  // namespace attain::dpl
