#include "kernelc/predecode.hh"

#include <algorithm>

#include "sim/log.hh"

namespace imagine::kernelc
{

namespace
{

MicroHandler
arithHandler(Opcode op)
{
    switch (op) {
#define IMAGINE_M(name)                                                  \
      case Opcode::name:                                                 \
        return MicroHandler::name;
    IMAGINE_ARITH_OPS(IMAGINE_M)
#undef IMAGINE_M
      default:
        IMAGINE_PANIC("no micro-op handler for opcode %d",
                      static_cast<int>(op));
    }
}

/** Pre-resolve producer @p id the way ClusterArray::value() would. */
MicroSrc
lowerSrc(const KernelGraph &g, uint32_t id, uint32_t depth)
{
    const Node &p = g.nodes[id];
    MicroSrc s;
    s.node = id;
    switch (p.op) {
      case Opcode::Imm:
        s.kind = MicroSrcKind::Imm;
        s.imm = p.payload;
        break;
      case Opcode::UcrRd:
        s.kind = MicroSrcKind::Ucr;
        s.imm = p.payload;
        break;
      case Opcode::Cid:
        s.kind = MicroSrcKind::Cid;
        break;
      case Opcode::Iter:
        s.kind = MicroSrcKind::IterIdx;
        break;
      case Opcode::Acc: {
        // value(Acc, iter) with iter > 0 reads value(in[1], iter - 1);
        // the fast path needs in[1] to own a loop-region value row.
        // Anything else (free-node feedback, chained accumulators) and
        // the iter == 0 restart/init case resolve generically.
        const Node &nxt = g.nodes[p.in[1]];
        if (isScheduled(nxt.op) && nxt.region == Region::Loop) {
            s.kind = MicroSrcKind::AccNext;
            s.base = p.in[1] * depth * numClusters;
        } else {
            s.kind = MicroSrcKind::Generic;
        }
        break;
      }
      default:
        // Scheduled producer: a value row in the cluster buffer.
        s.kind = p.region == Region::Loop ? MicroSrcKind::RowLoop
                                          : MicroSrcKind::RowFixed;
        s.base = id * depth * numClusters;
        break;
    }
    return s;
}

MicroOp
lowerOp(const CompiledKernel &k, const ScheduledOp &sop, uint32_t depth)
{
    const KernelGraph &g = k.graph;
    const Node &n = g.nodes[sop.node];
    MicroOp m;
    m.numIn = n.numIn;
    m.dstLoop = n.region == Region::Loop ? 1 : 0;
    m.dstBase = sop.node * depth * numClusters;
    switch (n.op) {
      case Opcode::In:
        m.h = MicroHandler::In;
        m.streamIdx = n.streamIdx;
        m.rec = g.inRec[n.streamIdx];
        m.elemIdx = n.elemIdx;
        break;
      case Opcode::Out:
        m.h = n.region == Region::Loop ? MicroHandler::OutLoop
                                       : MicroHandler::OutEpilogue;
        m.streamIdx = n.streamIdx;
        m.rec = g.outRec[n.streamIdx];
        m.elemIdx = n.elemIdx;
        break;
      case Opcode::OutCond:
        m.h = MicroHandler::OutCond;
        m.streamIdx = n.streamIdx;
        m.rec = g.outRec[n.streamIdx];
        m.elemIdx = n.elemIdx;
        break;
      case Opcode::CommPerm:
        m.h = MicroHandler::CommPerm;
        break;
      case Opcode::SpRd:
        m.h = MicroHandler::SpRd;
        break;
      case Opcode::SpWr:
        m.h = MicroHandler::SpWr;
        break;
      case Opcode::UcrWr:
        m.h = MicroHandler::UcrWr;
        m.ucrIdx = static_cast<uint16_t>(n.payload);
        break;
      default:
        m.h = arithHandler(n.op);
        break;
    }
    for (int i = 0; i < n.numIn; ++i)
        m.src[i] = lowerSrc(g, n.in[i], depth);
    return m;
}

} // namespace

LoweredKernel
lower(const CompiledKernel &k)
{
    LoweredKernel L;
    // Value buffers sized for the deepest software-pipeline overlap.
    uint32_t need = static_cast<uint32_t>(k.loop.stages()) + 2;
    L.depth = 1;
    while (L.depth < need)
        L.depth <<= 1;
    L.mask = L.depth - 1;

    // Loop: bucket-major, k.loop.ops order within each bucket.
    const uint32_t ii = static_cast<uint32_t>(std::max(k.loop.ii, 1));
    std::vector<std::vector<ScheduledOp>> buckets(ii);
    for (const ScheduledOp &s : k.loop.ops)
        buckets[static_cast<uint32_t>(s.time) % ii].push_back(s);
    L.loop.bucketBegin.resize(ii + 1);
    L.loop.bucketHasStream.assign(ii, 0);
    for (uint32_t b = 0; b < ii; ++b) {
        L.loop.bucketBegin[b] = static_cast<uint32_t>(L.loop.ops.size());
        for (const ScheduledOp &s : buckets[b]) {
            L.loop.ops.push_back(lowerOp(k, s, L.depth));
            L.loop.stage.push_back(static_cast<uint32_t>(s.time) / ii);
            MicroHandler h = L.loop.ops.back().h;
            if (h == MicroHandler::In || h == MicroHandler::OutLoop ||
                h == MicroHandler::OutEpilogue ||
                h == MicroHandler::OutCond)
                L.loop.bucketHasStream[b] = 1;
        }
    }
    L.loop.bucketBegin[ii] = static_cast<uint32_t>(L.loop.ops.size());

    // Blocks: time-sorted.  std::sort's permutation of equal-time ops
    // is implementation-defined but deterministic for identical input,
    // which fixes same-cycle op order (conditional appends, scratchpad
    // accesses); the goldens pin it.
    auto lowerBlock = [&](const BlockSchedule &blk, LoweredRegion &out) {
        std::vector<ScheduledOp> ops = blk.ops;
        std::sort(ops.begin(), ops.end(),
                  [](const ScheduledOp &a, const ScheduledOp &b) {
                      return a.time < b.time;
                  });
        for (const ScheduledOp &s : ops) {
            out.ops.push_back(lowerOp(k, s, L.depth));
            out.stage.push_back(static_cast<uint32_t>(s.time));
        }
    };
    lowerBlock(k.prologue, L.prologue);
    lowerBlock(k.epilogue, L.epilogue);
    return L;
}

} // namespace imagine::kernelc
