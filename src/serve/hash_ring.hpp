// HashRing — consistent hashing with virtual nodes for the serve cluster.
//
// Each node contributes `vnodes` points on a 64-bit ring (points are
// splitmix64 mixes of (node, vnode), so placement is deterministic across
// processes and restarts). A key hashes to a ring position and is owned by
// the first point clockwise; `replicas(h, n)` continues clockwise
// collecting the first n *distinct* nodes — the key's replica set, with
// the owner first. The properties the cluster leans on:
//
//   * balance — a node's load share has relative spread ~1/sqrt(vnodes)
//     (each point owns an exponential-length arc), so the default 128
//     points per node keep the max/mean key-load ratio under 1.25 for
//     fleets of 2-8 nodes (asserted over 1k synthetic keys in
//     tests/test_cluster.cpp; 64 points can stray past 1.4);
//   * minimal churn — adding a node to an N-node ring remaps only the key
//     ranges its new points capture, ~K/(N+1) of K keys, and every remapped
//     key moves TO the new node; removing undoes exactly that. Keys that
//     stay put keep their RAM-tier locality across fleet resizes.
//
// Not thread-safe: the cluster guards its ring with the router mutex. Point
// collisions between distinct nodes (probability ~P^2/2^64 for P points)
// are resolved at add() by re-mixing until a free point is found; remove()
// erases by node id, so resolution order never leaks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

namespace is2::serve {

class HashRing {
 public:
  /// Ring points per node by default, and the count `serve::Cluster` uses.
  static constexpr std::size_t kDefaultVnodes = 128;

  explicit HashRing(std::size_t vnodes_per_node = kDefaultVnodes);

  /// Add a node's vnode points; no-op when already present.
  void add(std::uint32_t node);
  /// Remove every point of a node; no-op when absent.
  void remove(std::uint32_t node);

  bool contains(std::uint32_t node) const { return nodes_.count(node) != 0; }
  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t vnodes_per_node() const { return vnodes_; }

  /// Owner of a hashed key: first point clockwise (wrapping).
  /// Throws std::runtime_error on an empty ring.
  std::uint32_t owner(std::uint64_t key_hash) const;

  /// First `n` distinct nodes clockwise from the key — the replica set,
  /// owner first. Returns all nodes (still in ring order) when n >= size.
  std::vector<std::uint32_t> replicas(std::uint64_t key_hash, std::size_t n) const;

 private:
  std::size_t vnodes_;
  std::map<std::uint64_t, std::uint32_t> points_;  ///< ring position -> node
  std::set<std::uint32_t> nodes_;
};

}  // namespace is2::serve
