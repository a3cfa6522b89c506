#include "xccl/msccl.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "common/reduce.hpp"
#include "common/schedule.hpp"

namespace mpixccl::xccl {

MscclAlgorithm MscclAlgorithm::allpairs_allreduce(int nranks, std::size_t min_bytes,
                                                  std::size_t max_bytes) {
  MscclAlgorithm algo;
  algo.name = "allpairs_allreduce_p" + std::to_string(nranks);
  algo.coll = BuiltinColl::AllReduce;
  algo.nranks = nranks;
  algo.nchunks = 1;
  algo.min_bytes = min_bytes;
  algo.max_bytes = max_bytes;
  algo.programs.resize(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    auto& prog = algo.programs[static_cast<std::size_t>(r)];
    // Step 0: send my vector to every peer.
    for (int peer = 0; peer < nranks; ++peer) {
      if (peer == r) continue;
      prog.push_back(MscclInstr{MscclInstr::Op::Send, peer, 0, 0, 0});
    }
    // Step 1: reduce every peer's vector into mine.
    for (int peer = 0; peer < nranks; ++peer) {
      if (peer == r) continue;
      prog.push_back(MscclInstr{MscclInstr::Op::RecvReduceCopy, peer, 0, 0, 1});
    }
  }
  return algo;
}

void MscclAlgorithm::validate() const {
  require(nranks >= 1, "MscclAlgorithm: nranks must be >= 1");
  require(nchunks >= 1, "MscclAlgorithm: nchunks must be >= 1");
  require(programs.size() == static_cast<std::size_t>(nranks),
          "MscclAlgorithm: one program per rank required");
  require(min_bytes <= max_bytes, "MscclAlgorithm: empty byte window");
  // Chunk indices may address the scratch area [nchunks, 2*nchunks).
  const int max_chunk = 2 * nchunks;
  for (const auto& prog : programs) {
    int last_step = 0;
    for (const auto& in : prog) {
      require(in.step >= last_step, "MscclAlgorithm: steps must be sorted");
      last_step = in.step;
      require(in.src_chunk >= 0 && in.src_chunk < max_chunk &&
                  in.dst_chunk >= 0 && in.dst_chunk < max_chunk,
              "MscclAlgorithm: chunk index out of range");
      if (in.op != MscclInstr::Op::Copy) {
        require(in.peer >= 0 && in.peer < nranks,
                "MscclAlgorithm: peer out of range");
      }
    }
    // Scratch chunks start undefined: each must be written (recv or copy
    // into it) before it is read (sent, copied from or recv-reduced into).
    // Walk the program as the interpreter runs it: per step, the sends and
    // copies in order, then the receives in order.
    std::vector<bool> written(static_cast<std::size_t>(nchunks), false);
    auto read = [&](int c) {
      require(c < nchunks || written[static_cast<std::size_t>(c - nchunks)],
              "MscclAlgorithm: scratch chunk read before it is written");
    };
    auto write = [&](int c) {
      if (c >= nchunks) written[static_cast<std::size_t>(c - nchunks)] = true;
    };
    for (std::size_t i = 0, end = 0; i < prog.size(); i = end) {
      while (end < prog.size() && prog[end].step == prog[i].step) ++end;
      for (std::size_t k = i; k < end; ++k) {
        const auto& in = prog[k];
        if (in.op == MscclInstr::Op::Send) read(in.src_chunk);
        if (in.op == MscclInstr::Op::Copy) {
          read(in.src_chunk);
          write(in.dst_chunk);
        }
      }
      for (std::size_t k = i; k < end; ++k) {
        const auto& in = prog[k];
        if (in.op == MscclInstr::Op::RecvReduceCopy) read(in.dst_chunk);
        if (in.op == MscclInstr::Op::Recv) write(in.dst_chunk);
      }
    }
  }
}

namespace {

BuiltinColl coll_from_name(const std::string& name) {
  for (const BuiltinColl c :
       {BuiltinColl::AllReduce, BuiltinColl::Broadcast, BuiltinColl::Reduce,
        BuiltinColl::AllGather, BuiltinColl::ReduceScatter}) {
    if (to_string(c) == name) return c;
  }
  throw Error("msccl parse: unknown collective '" + name + "'");
}

/// "key=value" -> value as integer, with "max" meaning SIZE_MAX for sizes.
std::size_t parse_kv(const std::string& token, const std::string& key) {
  const std::string prefix = key + "=";
  require(token.rfind(prefix, 0) == 0,
          "msccl parse: expected '" + key + "=...', got '" + token + "'");
  const std::string value = token.substr(prefix.size());
  if (value == "max") return SIZE_MAX;
  return std::stoull(value);
}

}  // namespace

MscclAlgorithm MscclAlgorithm::parse(const std::string& text) {
  MscclAlgorithm algo;
  bool have_header = false;
  int current_rank = -1;

  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word) || word[0] == '#') continue;

    if (word == "algorithm") {
      std::string name;
      std::string coll;
      std::string kv;
      require(static_cast<bool>(ls >> name >> coll),
              "msccl parse: malformed algorithm header");
      algo.name = name;
      algo.coll = coll_from_name(coll);
      while (ls >> kv) {
        if (kv.rfind("nranks=", 0) == 0) {
          algo.nranks = static_cast<int>(parse_kv(kv, "nranks"));
        } else if (kv.rfind("nchunks=", 0) == 0) {
          algo.nchunks = static_cast<int>(parse_kv(kv, "nchunks"));
        } else if (kv.rfind("min_bytes=", 0) == 0) {
          algo.min_bytes = parse_kv(kv, "min_bytes");
        } else if (kv.rfind("max_bytes=", 0) == 0) {
          algo.max_bytes = parse_kv(kv, "max_bytes");
        } else {
          throw Error("msccl parse: unknown header key '" + kv + "'");
        }
      }
      require(algo.nranks >= 1, "msccl parse: header must set nranks");
      algo.programs.assign(static_cast<std::size_t>(algo.nranks), {});
      have_header = true;
      continue;
    }

    require(have_header, "msccl parse: instruction before 'algorithm' header");
    if (word == "rank") {
      int r = -1;
      require(static_cast<bool>(ls >> r) && r >= 0 && r < algo.nranks,
              "msccl parse: bad rank line " + std::to_string(line_no));
      current_rank = r;
      continue;
    }

    require(current_rank >= 0,
            "msccl parse: instruction before any 'rank' line");
    MscclInstr instr;
    std::string kv;
    if (word == "send" || word == "recv" || word == "recvreduce") {
      instr.op = (word == "send")        ? MscclInstr::Op::Send
                 : (word == "recv")      ? MscclInstr::Op::Recv
                                         : MscclInstr::Op::RecvReduceCopy;
      while (ls >> kv) {
        if (kv.rfind("peer=", 0) == 0) {
          instr.peer = static_cast<int>(parse_kv(kv, "peer"));
        } else if (kv.rfind("chunk=", 0) == 0) {
          const int c = static_cast<int>(parse_kv(kv, "chunk"));
          instr.src_chunk = c;
          instr.dst_chunk = c;
        } else if (kv.rfind("step=", 0) == 0) {
          instr.step = static_cast<int>(parse_kv(kv, "step"));
        } else {
          throw Error("msccl parse: unknown key '" + kv + "'");
        }
      }
    } else if (word == "copy") {
      instr.op = MscclInstr::Op::Copy;
      while (ls >> kv) {
        if (kv.rfind("src=", 0) == 0) {
          instr.src_chunk = static_cast<int>(parse_kv(kv, "src"));
        } else if (kv.rfind("dst=", 0) == 0) {
          instr.dst_chunk = static_cast<int>(parse_kv(kv, "dst"));
        } else if (kv.rfind("step=", 0) == 0) {
          instr.step = static_cast<int>(parse_kv(kv, "step"));
        } else {
          throw Error("msccl parse: unknown key '" + kv + "'");
        }
      }
    } else {
      throw Error("msccl parse: unknown instruction '" + word + "' at line " +
                  std::to_string(line_no));
    }
    algo.programs[static_cast<std::size_t>(current_rank)].push_back(instr);
  }

  require(have_header, "msccl parse: missing 'algorithm' header");
  algo.validate();
  return algo;
}

MscclAlgorithm MscclAlgorithm::load_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "msccl load_file: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

std::string MscclAlgorithm::serialize() const {
  std::ostringstream os;
  os << "algorithm " << name << ' ' << to_string(coll) << " nranks=" << nranks
     << " nchunks=" << nchunks << " min_bytes=" << min_bytes << " max_bytes=";
  if (max_bytes == SIZE_MAX) {
    os << "max";
  } else {
    os << max_bytes;
  }
  os << '\n';
  for (int r = 0; r < nranks; ++r) {
    os << "rank " << r << '\n';
    for (const MscclInstr& in : programs[static_cast<std::size_t>(r)]) {
      switch (in.op) {
        case MscclInstr::Op::Send:
          os << "  send peer=" << in.peer << " chunk=" << in.src_chunk;
          break;
        case MscclInstr::Op::Recv:
          os << "  recv peer=" << in.peer << " chunk=" << in.dst_chunk;
          break;
        case MscclInstr::Op::RecvReduceCopy:
          os << "  recvreduce peer=" << in.peer << " chunk=" << in.dst_chunk;
          break;
        case MscclInstr::Op::Copy:
          os << "  copy src=" << in.src_chunk << " dst=" << in.dst_chunk;
          break;
      }
      os << " step=" << in.step << '\n';
    }
  }
  return os.str();
}

MscclBackend::MscclBackend(fabric::RankContext& ctx, const sim::CclProfile& profile)
    : RingCclBackend(CclKind::Msccl, ctx, profile, nccl_family_capabilities()) {}

void MscclBackend::register_algorithm(MscclAlgorithm algo) {
  algo.validate();
  registered_.push_back(std::move(algo));
}

const MscclAlgorithm* MscclBackend::find(BuiltinColl coll, int nranks,
                                         std::size_t bytes) {
  for (const auto& a : registered_) {
    if (a.coll == coll && a.nranks == nranks && bytes >= a.min_bytes &&
        bytes <= a.max_bytes) {
      return &a;
    }
  }
  if (builtin_allpairs_ && coll == BuiltinColl::AllReduce && nranks > 1 &&
      bytes >= kAllpairsMinBytes && bytes <= kAllpairsMaxBytes) {
    auto it = allpairs_cache_.find(nranks);
    if (it == allpairs_cache_.end()) {
      it = allpairs_cache_
               .emplace(nranks, MscclAlgorithm::allpairs_allreduce(
                                    nranks, kAllpairsMinBytes, kAllpairsMaxBytes))
               .first;
    }
    return &it->second;
  }
  return nullptr;
}

std::optional<std::string> MscclBackend::algorithm_for(BuiltinColl coll, int nranks,
                                                       std::size_t bytes) {
  const MscclAlgorithm* a = find(coll, nranks, bytes);
  if (a == nullptr) return std::nullopt;
  return a->name;
}

sim::TimeUs MscclBackend::run_allreduce_program(const MscclAlgorithm& algo,
                                                const void* sendbuf, void* recvbuf,
                                                std::size_t count, DataType dt,
                                                ReduceOp op, CclComm& comm,
                                                sim::TimeUs t0) {
  const std::size_t esz = datatype_size(dt);
  const std::size_t bytes = count * esz;
  const auto un = static_cast<std::size_t>(algo.nchunks);
  const std::size_t chunk_count = (count + un - 1) / un;
  const std::size_t chunk_bytes = chunk_count * esz;

  // Working area: chunks [0, nchunks) hold the message, its last chunk
  // padded with zeros when count does not divide evenly; chunks
  // [nchunks, 2*nchunks) are scratch.
  const auto work = uninit(chunk_bytes * un * 2);
  std::memcpy(work.get(), sendbuf, bytes);
  std::memset(work.get() + bytes, 0, chunk_bytes * un - bytes);
  auto chunk_ptr = [&](int c) {
    return work.get() + static_cast<std::size_t>(c) * chunk_bytes;
  };
  auto chunk_len = [&](int c) {
    // Last data chunk may be short; scratch chunks are full-size.
    if (c == algo.nchunks - 1) return bytes - chunk_bytes * (un - 1);
    return chunk_bytes;
  };

  const auto& prog = algo.programs[static_cast<std::size_t>(comm.rank())];
  // The length of the payload a receive from `peer` lands: that of the chunk
  // its matching send carries, the peer's next send to this rank (one
  // channel and one tag, so each peer's messages match in program order).
  std::vector<std::size_t> next_send(algo.programs.size(), 0);
  auto payload_len = [&](int peer) {
    const auto& theirs = algo.programs[static_cast<std::size_t>(peer)];
    std::size_t& j = next_send[static_cast<std::size_t>(peer)];
    while (j < theirs.size() && (theirs[j].op != MscclInstr::Op::Send ||
                                 theirs[j].peer != comm.rank())) {
      ++j;
    }
    require(j < theirs.size(), "msccl: a receive has no matching send");
    return chunk_len(theirs[j++].src_chunk);
  };
  const fabric::ChannelId ch = comm.next_op_channel();
  sim::TimeUs t = t0;
  sim::VirtualClock scratch_clock;

  // Send completions are collected across the whole program and folded into
  // the final time: waiting per step would deadlock, since a rendezvous send
  // only resolves once the peer posts the matching recv in a *later* step.
  // A send buffer is the fabric's until its send resolves, while later steps
  // may recv-reduce into a chunk already sent, so every send goes out of its
  // own staging slot: a snapshot of the chunk at the send's step.
  std::vector<fabric::PendingSend> all_sends;
  const auto n_sends = static_cast<std::size_t>(
      std::count_if(prog.begin(), prog.end(),
                    [](const MscclInstr& in) { return in.op == MscclInstr::Op::Send; }));
  const auto staging = uninit(n_sends * chunk_bytes);

  std::size_t i = 0;
  while (i < prog.size()) {
    const int step = prog[i].step;
    std::size_t end = i;
    std::size_t step_recvs = 0;
    while (end < prog.size() && prog[end].step == step) {
      if (prog[end].op == MscclInstr::Op::Recv ||
          prog[end].op == MscclInstr::Op::RecvReduceCopy) {
        ++step_recvs;
      }
      ++end;
    }

    // Phase A: issue all sends and copies of this step at time t.
    for (std::size_t k = i; k < end; ++k) {
      const auto& in = prog[k];
      if (in.op == MscclInstr::Op::Send) {
        fabric::SendPolicy policy{.rendezvous = true, .eager_complete_us = 0.0};
        // All program traffic shares tag 0: sender/receiver step numbers can
        // differ for the same transfer, and FIFO matching per (src, channel)
        // already mirrors program order.
        std::byte* slot = staging.get() + all_sends.size() * chunk_bytes;
        const std::size_t len = chunk_len(in.src_chunk);
        std::memcpy(slot, chunk_ptr(in.src_chunk), len);
        all_sends.push_back(ctx().endpoint_of(comm.world_rank(in.peer))
                                .deliver(ctx().rank(), 0, ch, slot, len, t, policy));
      } else if (in.op == MscclInstr::Op::Copy) {
        std::memcpy(chunk_ptr(in.dst_chunk), chunk_ptr(in.src_chunk),
                    chunk_len(in.src_chunk));
      }
    }
    // Phase B: complete all receives; concurrent arrivals share the link.
    // Each lands in its chunk at the match: a Recv as a copy, a
    // RecvReduceCopy reduced with the chunk, posted at the payload's exact
    // size as the fabric requires of a receive-reduce.
    sim::TimeUs step_end = t;
    for (std::size_t k = i; k < end; ++k) {
      const auto& in = prog[k];
      if (in.op != MscclInstr::Op::Recv && in.op != MscclInstr::Op::RecvReduceCopy) {
        continue;
      }
      // Custom algorithms run as fused kernels: transfers pay the pipelined
      // hop cost, not the full p2p protocol alpha; concurrent arrivals
      // share the link (hence bytes * step_recvs).
      auto cost = [this, step_recvs](int sw, std::size_t b) {
        return tree_hop_cost(sw, b * std::max<std::size_t>(step_recvs, 1));
      };
      std::optional<fabric::ReduceSpec> reduce;
      if (in.op == MscclInstr::Op::RecvReduceCopy) reduce = fabric::ReduceSpec{dt, op};
      auto pr = ctx().endpoint().post_recv(comm.world_rank(in.peer), 0, ch,
                                           chunk_ptr(in.dst_chunk), payload_len(in.peer),
                                           t, cost, reduce);
      step_end = std::max(step_end, pr.wait(scratch_clock).completion);
    }
    t = step_end;
    i = end;
  }
  for (auto& s : all_sends) t = std::max(t, s.wait(scratch_clock));

  std::memcpy(recvbuf, work.get(), bytes);
  return t;
}

XcclResult MscclBackend::all_reduce(const void* sendbuf, void* recvbuf,
                                    std::size_t count, DataType dt, ReduceOp op,
                                    CclComm& comm, device::Stream& stream) {
  if (!comm.valid()) return XcclResult::InvalidUsage;
  if (auto r = check_reduce(dt, op); !ok(r)) return r;
  const std::size_t bytes = count * datatype_size(dt);
  const MscclAlgorithm* algo = find(BuiltinColl::AllReduce, comm.nranks(), bytes);
  if (algo == nullptr) {
    return RingCclBackend::all_reduce(sendbuf, recvbuf, count, dt, op, comm,
                                      stream);
  }
  const sim::TimeUs t0 = begin_op(stream);
  const sim::TimeUs t =
      run_allreduce_program(*algo, sendbuf, recvbuf, count, dt, op, comm, t0);
  if (op == ReduceOp::Avg) {
    throw_if_error(scale_inplace(dt, recvbuf, count, 1.0 / comm.nranks()),
                   "msccl allreduce avg");
  }
  stream.advance_tail_to(t);
  return XcclResult::Success;
}

}  // namespace mpixccl::xccl
