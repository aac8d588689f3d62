/**
 * @file
 * The one TU that may see inside every simulator component: the
 * SnapshotAccess friend folds campaign state into an obs::StateHasher
 * through one field list per type.
 */

#include "chaos/snapshot.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chaos/fault_schedule.hpp"
#include "chaos/oracle.hpp"
#include "chaos/watchdog.hpp"
#include "core/network.hpp"
#include "obs/digest.hpp"
#include "traffic/injector.hpp"

namespace tpnet {

/** Friend of every stateful simulator class. */
struct SnapshotAccess
{
    using Hasher = obs::StateHasher;

    // --- Adapters --------------------------------------------------------
    static void
    ioI8(Hasher &h, std::int8_t v)
    {
        h.u8(static_cast<std::uint8_t>(v));
    }

    template <class E>
    static void
    ioEnum(Hasher &h, E v)
    {
        h.u8(static_cast<std::uint8_t>(v));
    }

    /** vector/deque/Fifo: the count, then f(h, element) in index order. */
    template <class V, class F>
    static void
    ioVec(Hasher &h, const V &v, F f)
    {
        h.u64(v.size());
        for (std::size_t i = 0; i < v.size(); ++i)
            f(h, v[i]);
    }

    /** unordered_map with 64-bit keys, folded in sorted key order. */
    template <class Map, class FVal>
    static void
    ioMap(Hasher &h, const Map &m, FVal fval)
    {
        h.u64(m.size());
        std::vector<std::uint64_t> keys;
        keys.reserve(m.size());
        for (const auto &kv : m)
            keys.push_back(kv.first);
        std::sort(keys.begin(), keys.end());
        for (std::uint64_t k : keys) {
            h.u64(k);
            fval(h, m.find(k)->second);
        }
    }

    // --- Leaf types ----------------------------------------------------
    static void
    io(Hasher &h, const Rng &rng)
    {
        for (std::uint64_t word : rng.s_)
            h.u64(word);
    }

    static void
    io(Hasher &h, const RunningStat &s)
    {
        h.u64(s.n_);
        h.f64(s.mean_);
        h.f64(s.m2_);
        h.f64(s.min_);
        h.f64(s.max_);
    }

    static void
    io(Hasher &h, const Histogram &hist)
    {
        h.f64(hist.width_);
        io(h, hist.counts_);
        h.u64(hist.total_);
    }

    static void
    io(Hasher &h, const Flit &f)
    {
        ioEnum(h, f.type);
        h.i64(f.msg);
        h.i32(f.seq);
        h.i32(f.hopIdx);
        h.i32(f.epoch);
        h.u64(f.readyAt);
    }

    /** VC trio @p i: the DIBU occupancy in pop order, then the VC. */
    static void
    io(Hasher &h, const DataPlane &plane, VcIndex i)
    {
        const VcState &vc = plane[i];
        h.u64(vc.size());
        for (std::size_t k = 0; k < vc.size(); ++k)
            io(h, plane.at(i, k));
        h.i64(vc.owner);
        h.b(vc.routed);
        h.i32(vc.outPort);
        h.i32(vc.outVc);
        h.i32(vc.counter);
        h.i32(vc.kReg);
        h.b(vc.hold);
    }

    static void
    io(Hasher &h, const PathHop &hop)
    {
        h.i32(hop.link);
        h.i32(hop.vc);
        h.b(hop.misroute);
        ioI8(h, hop.corrected);
    }

    static void
    io(Hasher &h, const HeaderState &hdr)
    {
        h.i32(hdr.cur);
        for (int off : hdr.offset)
            h.i32(off);
        h.b(hdr.backtrack);
        h.b(hdr.detour);
        h.b(hdr.sr);
        h.i32(hdr.misroutes);
        for (std::int8_t bal : hdr.misBalance)
            ioI8(h, bal);
        h.u8(hdr.datelineCrossed);
        ioEnum(h, hdr.flow);
        h.i32(hdr.hops);
        h.i32(hdr.stalled);
        h.i32(hdr.holdIdx);
    }

    static void
    io(Hasher &h, const Message &m)
    {
        h.i64(m.id);
        h.i32(m.src);
        h.i32(m.dst);
        h.i32(m.length);
        h.u64(m.created);
        h.u64(m.deliveredAt);
        ioEnum(h, m.state);
        h.b(m.measured);
        io(h, m.hdr);
        io(h, m.path);
        ioVec(h, m.visited,
              [](Hasher &a, const std::pair<NodeId, std::uint32_t> &e) {
                  a.i32(e.first);
                  a.u32(e.second);
              });
        h.i32(m.srcCounter);
        h.i32(m.srcK);
        h.b(m.srcHold);
        h.b(m.srcRouted);
        h.b(m.headerInjected);
        h.b(m.inQueue);
        h.i32(m.injectedFlits);
        h.i32(m.arrivedFlits);
        h.i32(m.leadHop);
        h.i32(m.releasedHops);
        h.b(m.headerAtDest);
        h.b(m.inRcu);
        ioEnum(h, m.teardown);
        h.i32(m.killWalks);
        h.i32(m.epoch);
        h.i32(m.retries);
        h.u64(m.retryAt);
        h.b(m.lostToFault);
        h.i32(m.healAttempts);
        h.u64(m.lastHealAt);
        h.u64(m.healKnotHash);
        h.u64(m.healStartedAt);
        h.i32(m.cls);
        h.b(m.isReply);
        h.i64(m.reqId);
        h.u64(m.reqCreated);
        h.b(m.e2eMeasured);
        h.i32(m.detoursBuilt);
        h.i32(m.backtracksTaken);
        h.i32(m.misroutesTaken);
        h.u64(m.lastMoved);
        h.u64(m.lastAdvanced);
    }

    static void
    io(Hasher &h, std::uint64_t v)
    {
        h.u64(v);
    }

    static void
    io(Hasher &h, const std::string &v)
    {
        h.str(v);
    }

    static void
    io(Hasher &h, const Counters &c)
    {
        Counters::forEachField([&h](const auto &f) { io(h, f); }, c);
    }

    /** A vector of any element type with an io overload. */
    template <class T>
    static void
    io(Hasher &h, const std::vector<T> &v)
    {
        ioVec(h, v, [](Hasher &a, const T &x) { io(a, x); });
    }

    static void
    io(Hasher &h, const ClassStat &cs)
    {
        ClassStat::forEachField([&h](const auto &f) { io(h, f); }, cs);
    }

    /** A vector or deque of message ids. */
    template <class V>
    static void
    ioIds(Hasher &h, const V &ids)
    {
        ioVec(h, ids, [](Hasher &a, MsgId m) { a.i64(m); });
    }

    static void
    io(Hasher &h, const verify::CwgCycle &c)
    {
        ioEnum(h, c.cls);
        h.u64(c.at);
        h.u64(c.hash);
        ioIds(h, c.members);
        h.str(c.diagnosis);
    }

    static void
    io(Hasher &h, const verify::PendingKnot &k)
    {
        io(h, k.cycle);
        ioIds(h, k.closure);
    }

    /**
     * The CWG tracker. Its records are folded in id order: committed
     * count, waits, and out-edges with their in-DAG flags (which
     * insertion history decided).
     */
    static void
    io(Hasher &h, const verify::CwgTracker &t)
    {
        h.i64(t.evalMsg_);
        ioVec(h, t.scratch_, [](Hasher &a, VcIndex k) { a.u32(k); });

        std::vector<MsgId> ids;
        t.net_.messageStore().forEach([&t, &ids](const Message &m) {
            const auto *w = t.find(m.id);
            if (w && !w->empty())
                ids.push_back(m.id);
        });
        ioVec(h, ids, [&t](Hasher &a, MsgId id) {
            const auto &w = *t.find(id);
            a.i64(id);
            a.u64(w.committed);
            ioVec(a, w.waits, [](Hasher &a2, const auto &r) {
                a2.u32(r.key);
                a2.i64(r.owner);
            });
            ioVec(a, w.out, [](Hasher &a2, const auto &o) {
                a2.i64(o.to);
                a2.b(o.inDag);
            });
        });

        ioMap(h, t.seen_, [](Hasher &a, const auto &e) {
            a.b(e.violation);
            a.b(e.benignSince.has_value());
            a.u64(e.benignSince.value_or(0));
            a.b(e.warned);
        });
        // recovery_ is armed by the constructor (config-derived).
        std::vector<std::uint64_t> healing(t.healing_.begin(),
                                           t.healing_.end());
        std::sort(healing.begin(), healing.end());
        io(h, healing);
        io(h, t.pendingKnots_);
        io(h, t.violations_);
        io(h, t.warnings_);
        h.str(t.lastDiagnosis_);
        h.u64(t.cyclesDetected_);
        h.u64(t.benignDetected_);
        h.u64(t.lastSweep_);
    }

    static void
    io(Hasher &h, const Network &net)
    {
        const DataPlane &plane = net.plane_;
        const int radix = net.topo_->radix();

        io(h, net.rng_);
        io(h, net.victimRng_);
        h.u64(net.now_);
        h.u64(net.lastActivity_);
        h.i64(net.nextMsgId_);
        h.b(net.measuring_);

        for (const Link &lk : net.links_) {
            for (int v = 0; v < plane.vcsPerLink(); ++v)
                io(h, plane, plane.index(lk.id, v));
            ioVec(h, lk.ctrlQ, [](Hasher &a, const Flit &f) { io(a, f); });
            ioVec(h, lk.ackQ, [](Hasher &a, const Flit &f) { io(a, f); });
            h.b(lk.faulty);
            h.b(lk.absent);
            h.b(lk.unsafe);
            h.u64(lk.dataCrossings);
            h.u64(lk.ctrlCrossings);
            h.u64(lk.maxCtrlDepth);
        }

        for (const Router &rt : net.routers_) {
            h.b(rt.faulty);
            ioVec(h, rt.rcuQueue, [](Hasher &a, const RcuEntry &e) {
                a.i64(e.msg);
                a.i32(e.epoch);
            });
            // Each output's crossbar list as (link, vc) pairs in
            // mapping order, then its round-robin pointer.
            for (int port = 0; port <= radix; ++port) {
                const int out = port == radix ? ejectPort : port;
                const std::span<const VcIndex> list = rt.mappedInputs(out);
                h.u64(list.size());
                for (VcIndex in : list) {
                    h.i32(plane.linkOf(in));
                    h.i32(plane.vcOf(in));
                }
                h.u64(rt.rr(out));
            }
            h.u64(rt.maxRcuDepth);
            h.u64(rt.headersRouted);
        }

        // The message table in id order.
        h.u64(net.messages_.size());
        net.messages_.forEach([&h](const Message &m) { io(h, m); });

        for (const auto &q : net.injQ_)
            ioIds(h, q);
        ioIds(h, net.retryList_);
        ioIds(h, net.retired_);

        io(h, net.counters_);

        ioMap(h, net.knotHealCount_, [](Hasher &a, int v) { a.i32(v); });
        ioVec(h, net.healLog_,
              [](Hasher &a, const Network::HealRecord &rec) {
                  a.u64(rec.at);
                  a.u64(rec.knotHash);
                  a.i64(rec.victim);
                  a.i32(rec.attempt);
              });

        for (const auto &proc : net.faultProcs_) {
            h.f64(proc.prob);
            h.i32(proc.budget);
        }
        h.u64(net.faultProcs_.back().down);  // the intermittent entry
        ioVec(h, net.pendingRestores_, [](Hasher &a, const auto &pr) {
            a.i32(pr.node);
            a.i32(pr.port);
            a.u64(pr.at);
        });
        h.b(net.skipKillSweep_);
        h.u64(net.rrNode_);

        if (net.cwg_)
            io(h, *net.cwg_);
    }

    static void
    io(Hasher &h, const chaos::FaultSchedule &s)
    {
        const auto eventIo = [](Hasher &a, const FaultEvent &e) {
            a.u64(e.at);
            ioEnum(a, e.kind);
            a.i32(e.node);
            a.i32(e.port);
            a.u64(e.downFor);
        };
        ioVec(h, s.events_, eventIo);
        ioVec(h, s.firedEvents_, eventIo);
        h.u64(s.next_);
        h.u64(s.fired_);
        h.u64(s.skipped_);
        h.b(s.sorted_);
    }

    /** The oracle's books: the ids it saw created, as (id, fields...)
     *  records in id order after their count. */
    static void
    io(Hasher &h, const chaos::DeliveryOracle &o)
    {
        const auto &recs = o.records_;
        h.u64(static_cast<std::uint64_t>(
            std::count_if(recs.begin(), recs.end(),
                          [](const auto &r) { return r.known; })));
        for (std::size_t id = 0; id < recs.size(); ++id) {
            const auto &r = recs[id];
            if (!r.known)
                continue;
            h.i64(static_cast<MsgId>(id));
            h.i32(r.src);
            h.i32(r.dst);
            h.u64(r.createdAt);
            h.i32(r.tails);
            h.b(r.terminated);
            ioEnum(h, r.outcome);
        }
        io(h, o.violations_);
        h.u64(o.createdCount_);
        h.u64(o.deliveredCount_);
        h.u64(o.undeliverableCount_);
        h.u64(o.lostCount_);
    }

    /** The watchdog's state; its flagged ids are folded in id order. */
    static void
    io(Hasher &h, const chaos::Watchdog &w)
    {
        io(h, w.violations_);
        h.b(w.deadlocked_);
        ioVec(h, w.flagged_, [](Hasher &a, MsgId id) { a.i64(id); });
    }

    static void
    io(Hasher &h, const Injector &inj)
    {
        // classes_/classOrder_ are pure functions of (config,
        // topology). The dynamic workload state is folded: the gate,
        // the offered count, the per-(node, class) burst machines and
        // closed-loop budgets, and any replies awaiting injection-queue
        // space.
        h.b(inj.stopped_);
        h.u64(inj.offered_);
        for (std::uint8_t on : inj.burstOn_)
            h.u8(on);
        for (int b : inj.outBudget_)
            h.i32(b);
        ioVec(h, inj.pendingReplies_,
              [](Hasher &a, const Injector::PendingReply &pr) {
                  a.i32(pr.src);
                  a.i32(pr.dst);
                  a.i32(pr.cls);
                  a.i32(pr.length);
                  a.i64(pr.reqId);
                  a.u64(pr.reqCreated);
                  a.b(pr.e2eMeasured);
              });
    }
};

namespace chaos {

std::uint64_t
campaignStateDigest(const CampaignState &st)
{
    obs::StateHasher h;
    SnapshotAccess::io(h, *st.net);
    SnapshotAccess::io(h, *st.faultRng);
    SnapshotAccess::io(h, *st.schedule);
    SnapshotAccess::io(h, *st.oracle);
    SnapshotAccess::io(h, *st.watchdog);
    SnapshotAccess::io(h, *st.injector);
    return h.digest();
}

} // namespace chaos
} // namespace tpnet
