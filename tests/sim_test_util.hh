/**
 * @file
 * Shared helpers for simulator-level tests: a mini-rig that couples an
 * SRF with a cluster array, a slow reference interpreter for kernel
 * graphs used as a differential-testing oracle, and a full-system
 * program whose kernel loop is long enough to fold.
 */

#ifndef IMAGINE_TESTS_SIM_TEST_UTIL_HH
#define IMAGINE_TESTS_SIM_TEST_UTIL_HH

#include <map>
#include <tuple>
#include <vector>

#include "apps/apps.hh"
#include "cluster/cluster.hh"
#include "core/system.hh"
#include "kernelc/schedule.hh"
#include "sim/config.hh"
#include "sim/log.hh"
#include "srf/srf.hh"

namespace imagine::testutil
{

/** SRF + cluster array, with helpers to run one kernel standalone. */
struct ClusterRig
{
    explicit ClusterRig(const MachineConfig &c) : cfg(c), srf(cfg),
                                                  ca(cfg, srf) {}

    /**
     * Run @p k once over the given input streams.
     *
     * Inputs are staged into the SRF; outputs are read back after the
     * kernel drains.  Returns one vector per output stream.
     */
    std::vector<std::vector<Word>>
    run(const kernelc::CompiledKernel &k,
        const std::vector<std::vector<Word>> &inputs,
        uint32_t explicitTrip = 0, uint64_t cycleLimit = 4'000'000)
    {
        std::vector<ClusterArray::Binding> ins, outs;
        uint32_t srfPos = 0;
        uint32_t trip = explicitTrip;
        for (size_t s = 0; s < inputs.size(); ++s) {
            Sdr sdr{srfPos, static_cast<uint32_t>(inputs[s].size())};
            for (size_t i = 0; i < inputs[s].size(); ++i)
                srf.write(srfPos + static_cast<uint32_t>(i),
                          inputs[s][i]);
            ins.push_back(
                {srf.openIn(sdr, static_cast<uint32_t>(
                                     k.graph.inRec[s]) *
                                     numClusters * 2),
                 sdr.length});
            srfPos += sdr.length;
            if (s == 0) {
                trip = sdr.length /
                       (static_cast<uint32_t>(k.graph.inRec[0]) *
                        numClusters);
            }
        }
        std::vector<uint32_t> outOff, outCap;
        for (int s = 0; s < k.graph.numOutStreams; ++s) {
            uint32_t cap = trip * k.graph.outRec[s] * numClusters +
                           k.graph.outEpilogueWords[s] * numClusters;
            if (k.graph.outIsCond[s]) {
                // Conditional streams have data-dependent length; be
                // generous (e.g. the rasterizer emits up to 16 words
                // per lane-iteration).
                cap = trip * numClusters * 16 + 64;
            }
            Sdr sdr{srfPos, cap};
            uint32_t window = std::max<uint32_t>(k.graph.outRec[s], 1) *
                              numClusters * 2;
            outs.push_back({srf.openOut(sdr, window), cap});
            outOff.push_back(srfPos);
            outCap.push_back(cap);
            srfPos += cap;
        }

        ca.start(&k, ins, outs, explicitTrip);
        cycles = 0;
        while (!ca.done()) {
            if (ca.foldArmed()) {
                // Sampled fidelity (enabled via ca.setSampling): fold
                // the armed region and tick the SRF across the folded
                // span (idle arbiter ticks are O(1)).
                uint64_t span = ca.executeFold();
                cycles += span;
                for (uint64_t i = 0; i < span; ++i)
                    srf.tick();
                continue;
            }
            ca.tick();
            srf.tick();
            ++cycles;
            IMAGINE_ASSERT(cycles < cycleLimit,
                           "kernel %s did not finish", k.name());
        }
        ca.retire();

        std::vector<std::vector<Word>> result;
        for (size_t s = 0; s < outs.size(); ++s) {
            uint32_t produced = srf.close(outs[s].client);
            std::vector<Word> data(produced);
            for (uint32_t i = 0; i < produced; ++i)
                data[i] = srf.read(outOff[s] + i);
            result.push_back(std::move(data));
        }
        for (auto &b : ins)
            srf.close(b.client);
        return result;
    }

    MachineConfig cfg;
    Srf srf;
    ClusterArray ca;
    uint64_t cycles = 0;
};

/**
 * Reference interpreter: evaluates a kernel graph directly, iteration
 * by iteration and lane by lane, with none of the scheduling machinery.
 * Supports everything except scratchpad ops (whose semantics depend on
 * intra-iteration order) - pass kernels without SP ops.
 */
class ReferenceInterp
{
  public:
    ReferenceInterp(const kernelc::KernelGraph &g,
                    const std::vector<std::vector<Word>> &inputs,
                    uint32_t trip, const std::vector<Word> &ucrs = {})
        : g_(g), inputs_(inputs), trip_(trip), ucrs_(ucrs)
    {
        ucrs_.resize(32, 0);
    }

    /** Run and return per-output-stream data. */
    std::vector<std::vector<Word>>
    run()
    {
        std::vector<std::vector<Word>> outs(g_.numOutStreams);
        for (int s = 0; s < g_.numOutStreams; ++s) {
            if (!g_.outIsCond[s]) {
                outs[s].assign(static_cast<size_t>(trip_) *
                                   g_.outRec[s] * numClusters +
                                   g_.outEpilogueWords[s] * numClusters,
                               0);
            }
        }
        for (uint32_t it = 0; it < trip_; ++it) {
            // Conditional writes happen in node order, lane-major per
            // node, matching the hardware compaction order.
            for (uint32_t id = 0; id < g_.nodes.size(); ++id) {
                const kernelc::Node &n = g_.nodes[id];
                if (n.region != kernelc::Region::Loop)
                    continue;
                if (n.op == Opcode::Out) {
                    for (int lane = 0; lane < numClusters; ++lane) {
                        uint32_t e = (it * numClusters + lane) *
                                         g_.outRec[n.streamIdx] +
                                     n.elemIdx;
                        outs[n.streamIdx][e] = value(n.in[0], it, lane);
                    }
                } else if (n.op == Opcode::OutCond) {
                    for (int lane = 0; lane < numClusters; ++lane) {
                        if (value(n.in[1], it, lane)) {
                            outs[n.streamIdx].push_back(
                                value(n.in[0], it, lane));
                        }
                    }
                }
            }
        }
        // Epilogue writes.
        for (uint32_t id = 0; id < g_.nodes.size(); ++id) {
            const kernelc::Node &n = g_.nodes[id];
            if (n.region != kernelc::Region::Epilogue ||
                n.op != Opcode::Out) {
                continue;
            }
            for (int lane = 0; lane < numClusters; ++lane) {
                uint32_t e = trip_ * g_.outRec[n.streamIdx] * numClusters +
                             n.elemIdx * numClusters +
                             static_cast<uint32_t>(lane);
                outs[n.streamIdx][e] = value(n.in[0], trip_, lane);
            }
        }
        return outs;
    }

    /** Value of node @p id as seen by a consumer at iteration @p iter. */
    Word
    value(uint32_t id, uint32_t iter, int lane)
    {
        const kernelc::Node &n = g_.nodes[id];
        if (n.region == kernelc::Region::Loop && n.op != Opcode::Acc &&
            iter >= trip_) {
            iter = trip_ - 1;
        }
        auto key = std::make_tuple(id, iter, lane);
        auto hit = memo_.find(key);
        if (hit != memo_.end())
            return hit->second;
        Word result;
        switch (n.op) {
          case Opcode::Imm: result = n.payload; break;
          case Opcode::UcrRd: result = ucrs_[n.payload]; break;
          case Opcode::Cid: result = static_cast<Word>(lane); break;
          case Opcode::Iter: result = iter; break;
          case Opcode::Acc:
            result = (iter == 0) ? value(n.in[0], 0, lane)
                                 : value(n.in[1], iter - 1, lane);
            break;
          case Opcode::In:
            result = inputs_[n.streamIdx]
                            [(iter * numClusters + lane) *
                                 g_.inRec[n.streamIdx] +
                             n.elemIdx];
            break;
          case Opcode::CommPerm: {
            Word src = value(n.in[1], iter, lane);
            result = value(n.in[0], iter,
                           static_cast<int>(src % numClusters));
            break;
          }
          case Opcode::Out:
          case Opcode::OutCond:
          case Opcode::UcrWr:
          case Opcode::SpRd:
          case Opcode::SpWr:
            IMAGINE_PANIC("reference interp: unexpected value read of %s",
                          opInfo(n.op).name);
          default: {
            Word in[3] = {0, 0, 0};
            for (int k = 0; k < n.numIn; ++k)
                in[k] = value(n.in[k], iter, lane);
            result = evalArith(n.op, in);
            break;
          }
        }
        memo_[key] = result;
        return result;
    }

  private:
    const kernelc::KernelGraph &g_;
    const std::vector<std::vector<Word>> &inputs_;
    uint32_t trip_;
    std::vector<Word> ucrs_;
    std::map<std::tuple<uint32_t, uint32_t, int>, Word> memo_;
};

/** SRF capacity runLongLoop's two 64K-word streams need. */
constexpr int kLongLoopSrfWords = 256 * 1024;

/**
 * One load -> kernel -> store program on @p sys computing
 * out[i] = x[i] + 7 over 8192 iterations per lane, far past the 2048
 * sampling threshold: the full-system case whose loop folds under
 * Fidelity::Sampled.  @p sys needs srfSizeWords >= kLongLoopSrfWords.
 * validated compares the stored stream with x + 7.
 */
inline apps::AppResult
runLongLoop(ImagineSystem &sys)
{
    kernelc::KernelBuilder kb("warmstream");
    int in = kb.addInput();
    int out = kb.addOutput();
    kb.beginLoop();
    kb.write(out, kb.iadd(kb.read(in), kb.immI(7)));
    kb.endLoop();
    uint16_t kid = sys.registerKernel(kb.finish());

    const uint32_t n = 8192 * numClusters;
    const Addr outAddr = 200000;
    std::vector<Word> x(n);
    for (uint32_t i = 0; i < n; ++i)
        x[i] = (i * 37u) % 251u;
    sys.memory().writeWords(0, x);
    auto b = sys.newProgram();
    uint32_t s0 = b.alloc(n), s1 = b.alloc(n);
    int d0 = b.sdr(s0, n), d1 = b.sdr(s1, n);
    b.load(b.marStride(0), d0, -1, "load x");
    b.kernel(kid, {d0}, {d1}, "warm");
    b.store(b.marStride(outAddr), d1, -1, "store out");
    StreamProgram prog = b.take();

    apps::AppResult r;
    r.run = sys.run(prog);
    std::vector<Word> y = sys.memory().readWords(outAddr, n);
    r.validated = true;
    for (uint32_t i = 0; i < n; ++i)
        r.validated = r.validated && y[i] == x[i] + 7;
    return r;
}

} // namespace imagine::testutil

#endif // IMAGINE_TESTS_SIM_TEST_UTIL_HH
