#pragma once
// MSCCL backend: NCCL-compatible API plus programmable custom collective
// algorithms, mirroring Microsoft's MSCCL (interpreter over an algorithm IR,
// with NCCL as the fallback for everything not covered by a program).
//
// An MscclAlgorithm is a per-rank instruction list over message chunks.
// Instructions with the same `step` value execute concurrently; steps
// execute in order. This is a compact equivalent of MSCCL-XML's threadblock
// programs and is expressive enough for the algorithms the paper exercises
// (the allpairs allreduce that beats ring/tree in the 256 B - 256 KB window).

#include <map>
#include <optional>
#include <string>

#include "xccl/ring_backend.hpp"

namespace mpixccl::xccl {

struct MscclInstr {
  enum class Op {
    Send,            ///< send chunk src_chunk to peer
    Recv,            ///< receive into chunk dst_chunk from peer
    RecvReduceCopy,  ///< receive from peer and reduce into chunk dst_chunk
    Copy,            ///< local chunk copy src_chunk -> dst_chunk
  };
  Op op = Op::Copy;
  int peer = -1;      ///< comm rank (Send/Recv*)
  int src_chunk = 0;  ///< chunk index (Send/Copy)
  int dst_chunk = 0;  ///< chunk index (Recv/RecvReduceCopy/Copy)
  int step = 0;       ///< instructions sharing a step run concurrently
};

struct MscclAlgorithm {
  std::string name;
  BuiltinColl coll = BuiltinColl::AllReduce;
  int nranks = 0;
  int nchunks = 1;  ///< the user message is split into this many chunks
  std::size_t min_bytes = 0;
  std::size_t max_bytes = SIZE_MAX;
  std::vector<std::vector<MscclInstr>> programs;  ///< one program per rank

  /// The classic MSCCL "allpairs" allreduce: one exchange phase where every
  /// rank sends its full vector to every peer and reduces what it receives.
  /// One alpha instead of O(p) of them; bandwidth-bound above the window.
  static MscclAlgorithm allpairs_allreduce(int nranks, std::size_t min_bytes,
                                           std::size_t max_bytes);

  /// Validate shape (program count, chunk indices, peer ranges). Throws
  /// Error on malformed algorithms.
  void validate() const;

  /// Parse the textual algorithm format (the stand-in for MSCCL-XML):
  ///
  ///   # comment
  ///   algorithm <name> <allreduce|broadcast|...> nranks=<n> nchunks=<c>
  ///             min_bytes=<b> max_bytes=<b|max>    (one line in the text)
  ///   rank <r>
  ///     send peer=<p> chunk=<c> step=<s>
  ///     recv peer=<p> chunk=<c> step=<s>
  ///     recvreduce peer=<p> chunk=<c> step=<s>
  ///     copy src=<c> dst=<c> step=<s>
  ///
  /// The result is validated; throws Error on malformed input.
  static MscclAlgorithm parse(const std::string& text);
  /// Parse from a file (the deployment flow: ship .msccl files, load at
  /// startup, register on the backend).
  static MscclAlgorithm load_file(const std::string& path);

  /// Inverse of parse(): render the textual form.
  [[nodiscard]] std::string serialize() const;
};

class MscclBackend : public RingCclBackend {
 public:
  MscclBackend(fabric::RankContext& ctx, const sim::CclProfile& profile);

  /// Register a custom algorithm (the MSCCL programmability feature). The
  /// first registered algorithm matching (coll, nranks, bytes) wins.
  void register_algorithm(MscclAlgorithm algo);

  /// Enable/disable synthesizing the built-in allpairs allreduce for
  /// medium-size messages when no registered algorithm matches (on by
  /// default; the ablation bench turns it off).
  void set_builtin_allpairs(bool enabled) { builtin_allpairs_ = enabled; }

  XcclResult all_reduce(const void* sendbuf, void* recvbuf, std::size_t count,
                        DataType dt, ReduceOp op, CclComm& comm,
                        device::Stream& stream) override;

  /// Which algorithm name would serve this call (testing/introspection);
  /// nullopt means the NCCL-style base path.
  [[nodiscard]] std::optional<std::string> algorithm_for(BuiltinColl coll,
                                                         int nranks,
                                                         std::size_t bytes);

 private:
  const MscclAlgorithm* find(BuiltinColl coll, int nranks, std::size_t bytes);

  /// Interpret `algo` for an allreduce-shaped call. Returns the completion
  /// time on success.
  sim::TimeUs run_allreduce_program(const MscclAlgorithm& algo,
                                    const void* sendbuf, void* recvbuf,
                                    std::size_t count, DataType dt, ReduceOp op,
                                    CclComm& comm, sim::TimeUs t0);

  std::vector<MscclAlgorithm> registered_;
  std::map<int, MscclAlgorithm> allpairs_cache_;  ///< per nranks
  bool builtin_allpairs_ = true;

  /// Builtin allpairs window, matching the paper's observation that MSCCL
  /// beats NCCL for medium messages (256 B to 256 KB).
  static constexpr std::size_t kAllpairsMinBytes = 256;
  static constexpr std::size_t kAllpairsMaxBytes = 262144;
};

}  // namespace mpixccl::xccl
