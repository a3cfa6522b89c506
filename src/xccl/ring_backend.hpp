#pragma once
// Shared implementation of the NCCL-family backends.
//
// NCCL, RCCL and HCCL behave identically at the algorithm level (ring
// collectives for bandwidth, binomial trees for latency) and differ in
// capability tables and cost profiles, so one RingCclBackend implements the
// mechanics and the concrete backends parameterize it.
//
// Virtual-time semantics per operation:
//   1. the launch overhead is charged to the rank's clock (CPU side);
//   2. the algorithm starts at max(stream tail, clock) — streams serialize;
//   3. each algorithm step is a fabric exchange whose completion couples the
//      participating ranks' timelines;
//   4. the final completion advances the stream tail; the caller observes it
//      at stream synchronization, exactly like a real CCL kernel.

#include <cstddef>
#include <optional>
#include <vector>

#include "xccl/backend.hpp"

namespace mpixccl::xccl {

class RingCclBackend : public CclBackend {
 public:
  RingCclBackend(CclKind kind, fabric::RankContext& ctx,
                 const sim::CclProfile& profile, Capabilities caps)
      : CclBackend(ctx), kind_(kind), prof_(profile), caps_(std::move(caps)) {}

  [[nodiscard]] CclKind kind() const override { return kind_; }
  [[nodiscard]] const Capabilities& capabilities() const override { return caps_; }
  [[nodiscard]] const sim::CclProfile& profile() const { return prof_; }

  XcclResult all_reduce(const void* sendbuf, void* recvbuf, std::size_t count,
                        DataType dt, ReduceOp op, CclComm& comm,
                        device::Stream& stream) override;
  XcclResult broadcast(void* buf, std::size_t count, DataType dt, int root,
                       CclComm& comm, device::Stream& stream) override;
  XcclResult reduce(const void* sendbuf, void* recvbuf, std::size_t count,
                    DataType dt, ReduceOp op, int root, CclComm& comm,
                    device::Stream& stream) override;
  XcclResult all_gather(const void* sendbuf, void* recvbuf, std::size_t sendcount,
                        DataType dt, CclComm& comm, device::Stream& stream) override;
  XcclResult reduce_scatter(const void* sendbuf, void* recvbuf,
                            std::size_t recvcount, DataType dt, ReduceOp op,
                            CclComm& comm, device::Stream& stream) override;
  XcclResult send(const void* buf, std::size_t count, DataType dt, int peer,
                  CclComm& comm, device::Stream& stream) override;
  XcclResult recv(void* buf, std::size_t count, DataType dt, int peer,
                  CclComm& comm, device::Stream& stream) override;
  XcclResult group_start() override;
  XcclResult group_end() override;

 protected:
  // ---- validation ---------------------------------------------------------
  [[nodiscard]] XcclResult check_move(DataType dt) const;
  [[nodiscard]] XcclResult check_reduce(DataType dt, ReduceOp op) const;

  // ---- cost helpers -------------------------------------------------------
  /// Effective p2p link to a peer world rank.
  [[nodiscard]] const sim::LinkParams& link(int peer_world) const;
  /// Per-step cost of a pipelined ring hop carrying `bytes`.
  [[nodiscard]] double ring_hop_cost(int src_world, std::size_t bytes) const;
  /// Per-hop cost of the small-message tree path.
  [[nodiscard]] double tree_hop_cost(int src_world, std::size_t bytes) const;
  /// Full p2p message cost (send/recv API). `concurrent` incoming transfers
  /// share the link; `bidirectional` applies the duplex-efficiency factor.
  [[nodiscard]] double p2p_cost(int src_world, std::size_t bytes,
                                std::size_t concurrent,
                                bool bidirectional = false) const;
  /// Extra latency from vendor quirk tables (HCCL step curves) for an op
  /// touching `bytes` on a communicator spanning multiple nodes.
  [[nodiscard]] double quirk_extra(const CclComm& comm, std::size_t bytes) const;

  /// Launch the op: charge launch overhead, return the stream-serialized
  /// start time.
  sim::TimeUs begin_op(device::Stream& stream);

  // ---- fabric step: symmetric exchange with one peer ----------------------
  /// Send `sbytes` from sbuf to `dst`, receive `rbytes` into rbuf from
  /// `src` (comm ranks), with per-step cost `cost_us(bytes)` based on the
  /// hop kind. With `reduce`, rbuf = op(received block, reduce->local)
  /// instead of a copy (rbuf must not overlap sbuf). Returns the new local
  /// time.
  sim::TimeUs step_exchange(CclComm& comm, fabric::ChannelId ch, int tag, int dst,
                            const void* sbuf, std::size_t sbytes, int src,
                            void* rbuf, std::size_t rbytes, sim::TimeUs ready,
                            bool tree_hop,
                            std::optional<fabric::ReduceSpec> reduce = std::nullopt);

 private:
  struct QueuedP2p {
    bool is_send;
    const void* sbuf;
    void* rbuf;
    std::size_t bytes;
    int peer_world;
    CclComm* comm;
    device::Stream* stream;
  };
  /// Queue one send or recv and flush it through group_end(): outside a
  /// group the op runs at once as a group of one, inside one it waits.
  XcclResult enqueue_p2p(const QueuedP2p& op);

  // Algorithm bodies (correctness + timing). The tree and ring walks come
  // from common/schedule.hpp.
  sim::TimeUs allreduce_ring(const void* sendbuf, void* recvbuf, std::size_t count,
                             DataType dt, ReduceOp op, CclComm& comm,
                             fabric::ChannelId ch, sim::TimeUs t0);
  sim::TimeUs bcast_tree(void* buf, std::size_t bytes, int root, int tag, CclComm& comm,
                         fabric::ChannelId ch, sim::TimeUs t0);
  sim::TimeUs bcast_ring(void* buf, std::size_t bytes, int root, CclComm& comm,
                         fabric::ChannelId ch, sim::TimeUs t0);
  /// Binomial reduce of `sendbuf` into `acc` (copied first unless they are
  /// the same buffer); on return the root's `acc` holds the result.
  sim::TimeUs reduce_tree(const void* sendbuf, void* acc, std::size_t count,
                          DataType dt, ReduceOp op, int root, CclComm& comm,
                          fabric::ChannelId ch, sim::TimeUs t0);
  /// Ring allgather over p blocks of `block` bytes in `buf`, this rank's own
  /// block already in place; step s uses tag `tag0 + s`.
  sim::TimeUs ring_allgather(std::byte* buf, std::size_t block, int tag0, CclComm& comm,
                             fabric::ChannelId ch, sim::TimeUs t0);
  /// Ring reduce-scatter of `input` (p blocks of block_count elements, read
  /// in place): on return, block `me` is fully reduced at land(p - 2, me).
  /// `land(s, b)` is the std::byte* where step `s` lands the partial result
  /// for block `b`; the next step forwards it from there. Defined in the .cpp,
  /// its only user.
  template <class Land>
  sim::TimeUs ring_reduce_scatter(const void* input, std::size_t block_count,
                                  DataType dt, ReduceOp op, CclComm& comm,
                                  fabric::ChannelId ch, sim::TimeUs t0,
                                  const Land& land);

  CclKind kind_;
  sim::CclProfile prof_;
  Capabilities caps_;
  int group_depth_ = 0;
  std::vector<QueuedP2p> group_queue_;
};

}  // namespace mpixccl::xccl
