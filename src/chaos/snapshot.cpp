/**
 * @file
 * The one TU that may see inside every simulator component: the
 * SnapshotAccess friend serializes and restores campaign state through
 * symmetric io() field lists (obs/checkpoint.hpp primitives). Each
 * type has exactly one list serving both directions, so save and load
 * cannot drift apart.
 */

#include "chaos/snapshot.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chaos/fault_schedule.hpp"
#include "chaos/oracle.hpp"
#include "chaos/watchdog.hpp"
#include "core/network.hpp"
#include "obs/checkpoint.hpp"
#include "traffic/injector.hpp"

namespace tpnet {

/**
 * Friend of every stateful simulator class. All member templates are
 * instantiated for obs::CkWriter and obs::CkReader only.
 */
struct SnapshotAccess
{
    /** Widest id span a restored message table may cover (4 bytes of
     *  window per id: 1 GiB), and the most ids a restored oracle
     *  indexes. */
    static constexpr std::uint64_t maxRestoredSpan = std::uint64_t{1} << 28;

    /** True when the archive is a reader that has already failed. */
    template <class Ar>
    static bool
    bad(Ar &ar)
    {
        if constexpr (Ar::isReader) {
            return !ar.ok();
        } else {
            (void)ar;
            return false;
        }
    }

    // --- Scalar adapters ----------------------------------------------
    template <class Ar>
    static void
    ioInt(Ar &ar, int &v)
    {
        std::int32_t x = static_cast<std::int32_t>(v);
        ar.i32(x);
        if constexpr (Ar::isReader)
            v = x;
    }

    template <class Ar>
    static void
    ioSz(Ar &ar, std::size_t &v)
    {
        std::uint64_t x = static_cast<std::uint64_t>(v);
        ar.u64(x);
        if constexpr (Ar::isReader)
            v = static_cast<std::size_t>(x);
    }

    template <class Ar>
    static void
    ioI8(Ar &ar, std::int8_t &v)
    {
        std::uint8_t x = static_cast<std::uint8_t>(v);
        ar.u8(x);
        if constexpr (Ar::isReader)
            v = static_cast<std::int8_t>(x);
    }

    template <class Ar, class E>
    static void
    ioEnum(Ar &ar, E &v)
    {
        std::uint8_t x = static_cast<std::uint8_t>(v);
        ar.u8(x);
        if constexpr (Ar::isReader)
            v = static_cast<E>(x);
    }

    /** An enum valued 0..@p last; the reader refuses any other byte. */
    template <class Ar, class E>
    static void
    ioEnum(Ar &ar, E &v, E last, const char *what)
    {
        std::uint8_t x = static_cast<std::uint8_t>(v);
        ar.u8(x);
        if constexpr (Ar::isReader) {
            if (x > static_cast<std::uint8_t>(last)) {
                std::ostringstream os;
                os << "checkpoint " << what << " " << int{x}
                   << " out of range";
                ar.fail(os.str());
                return;
            }
            v = static_cast<E>(x);
        }
    }

    // --- Container adapters -------------------------------------------
    /**
     * Serialized count of a fixed-geometry container: written for the
     * reader to cross-check, never to resize (the constructor owns the
     * geometry).
     */
    template <class Ar>
    static void
    ioCheckCount(Ar &ar, std::size_t actual, const char *what)
    {
        std::uint64_t n = static_cast<std::uint64_t>(actual);
        ar.u64(n);
        if constexpr (Ar::isReader) {
            if (n != actual) {
                std::ostringstream os;
                os << "checkpoint " << what << " count " << n
                   << " does not match the configured geometry ("
                   << actual << ")";
                ar.fail(os.str());
            }
        }
    }

    /** vector/deque/Fifo with per-element callback f(ar, element). */
    template <class Ar, class V, class F>
    static void
    ioVec(Ar &ar, V &v, F f)
    {
        std::uint64_t n = static_cast<std::uint64_t>(v.size());
        ar.u64(n);
        if constexpr (Ar::isReader) {
            // Every element writes at least one byte, so a count past
            // the unread payload is layout drift, not data.
            if (n > ar.remaining()) {
                ar.fail("implausible checkpoint container size");
                return;
            }
            v.clear();
            v.resize(static_cast<std::size_t>(n));
        }
        for (std::size_t i = 0; i < v.size() && !bad(ar); ++i)
            f(ar, v[i]);
    }

    /**
     * unordered_map with 64-bit keys, written in sorted key order
     * (deterministic bytes; restore-order independence is the caller's
     * contract).
     */
    template <class Ar, class Map, class FVal>
    static void
    ioMap(Ar &ar, Map &m, FVal fval)
    {
        std::uint64_t n = static_cast<std::uint64_t>(m.size());
        ar.u64(n);
        if constexpr (Ar::isReader) {
            if (n > ar.remaining()) {
                ar.fail("implausible checkpoint container size");
                return;
            }
            m.clear();
            for (std::uint64_t i = 0; i < n; ++i) {
                if (!ar.ok())
                    return;
                std::uint64_t k = 0;
                ar.u64(k);
                fval(ar, m[k]);
            }
        } else {
            std::vector<std::uint64_t> keys;
            keys.reserve(m.size());
            for (const auto &kv : m)
                keys.push_back(kv.first);
            std::sort(keys.begin(), keys.end());
            for (std::uint64_t k : keys) {
                ar.u64(k);
                fval(ar, m.find(k)->second);
            }
        }
    }

    /**
     * The id of one record in a table written in id order. The reader
     * requires ids strictly increasing (past @p last, which it then
     * advances) and below @p nextId, the next id the network issues.
     */
    template <class Ar>
    static void
    ioRecordId(Ar &ar, MsgId &id, MsgId &last, MsgId nextId,
               const char *what)
    {
        ar.i64(id);
        if constexpr (Ar::isReader) {
            if (id <= last || id >= nextId) {
                ar.fail(std::string("checkpoint ") + what +
                        " ids out of order or beyond the next id");
                return;
            }
        }
        last = id;
    }

    /**
     * One VC's DIBU through the data plane: the capacity is fixed by the
     * constructor, only the occupancy travels.
     */
    template <class Ar>
    static void
    ioDibu(Ar &ar, DataPlane &plane, VcIndex i)
    {
        std::uint64_t n = static_cast<std::uint64_t>(plane[i].size());
        ar.u64(n);
        if constexpr (Ar::isReader) {
            if (n > plane.depth()) {
                ar.fail("checkpoint FIFO depth exceeds the configured "
                        "buffer capacity");
                return;
            }
            while (!plane[i].empty())
                plane.pop(i);
            for (std::uint64_t k = 0; k < n; ++k) {
                if (!ar.ok())
                    return;
                Flit f;
                io(ar, f);
                plane.push(i, f);
            }
        } else {
            for (std::uint64_t k = 0; k < n; ++k) {
                Flit f = plane.at(i, static_cast<std::size_t>(k));
                io(ar, f);
            }
        }
    }

    /** An int-serialized field stored narrower; the reader range-checks. */
    template <class Ar>
    static void
    ioNarrow(Ar &ar, std::int8_t &v, int lo, int hi, const char *what)
    {
        int x = v;
        ioInt(ar, x);
        if constexpr (Ar::isReader) {
            if (x < lo || x >= hi) {
                std::ostringstream os;
                os << "checkpoint " << what << " " << x
                   << " out of range";
                ar.fail(os.str());
                return;
            }
            v = static_cast<std::int8_t>(x);
        }
    }

    // --- Leaf types ----------------------------------------------------
    template <class Ar>
    static void
    io(Ar &ar, Rng &rng)
    {
        for (auto &word : rng.s_)
            ar.u64(word);
    }

    template <class Ar>
    static void
    io(Ar &ar, RunningStat &s)
    {
        ar.u64(s.n_);
        ar.f64(s.mean_);
        ar.f64(s.m2_);
        ar.f64(s.min_);
        ar.f64(s.max_);
    }

    template <class Ar>
    static void
    io(Ar &ar, Histogram &h)
    {
        ar.f64(h.width_);
        io(ar, h.counts_);
        ar.u64(h.total_);
    }

    template <class Ar>
    static void
    io(Ar &ar, Flit &f)
    {
        ioEnum(ar, f.type);
        ar.i64(f.msg);
        ar.i32(f.seq);
        ar.i32(f.hopIdx);
        ar.i32(f.epoch);
        ar.u64(f.readyAt);
    }

    /** VC trio @p i of a network with @p radix ports. */
    template <class Ar>
    static void
    io(Ar &ar, DataPlane &plane, VcIndex i, int radix)
    {
        ioDibu(ar, plane, i);
        VcState &vc = plane[i];
        ar.i64(vc.owner);
        ar.b(vc.routed);
        ioNarrow(ar, vc.outPort, ejectPort, radix, "VC output port");
        ioNarrow(ar, vc.outVc, -1, plane.vcsPerLink(), "VC output VC");
        ioInt(ar, vc.counter);
        ioInt(ar, vc.kReg);
        ar.b(vc.hold);
        if constexpr (Ar::isReader) {
            // The data phase indexes by the mapping of a routed VC: a
            // routed VC names a port (and a VC unless it ejects), an
            // unrouted one names neither.
            const bool consistent = !vc.routed
                ? vc.outPort == -1 && vc.outVc == -1
                : vc.outPort == ejectPort ? vc.outVc == -1
                                          : vc.outPort >= 0 && vc.outVc >= 0;
            if (!consistent)
                ar.fail("checkpoint VC mapping disagrees with its routed "
                        "bit");
        }
    }

    template <class Ar>
    static void
    io(Ar &ar, PathHop &hop)
    {
        ar.i32(hop.link);
        ioInt(ar, hop.vc);
        ar.b(hop.misroute);
        ioI8(ar, hop.corrected);
    }

    template <class Ar>
    static void
    io(Ar &ar, HeaderState &h)
    {
        ar.i32(h.cur);
        for (auto &off : h.offset)
            ioInt(ar, off);
        ar.b(h.backtrack);
        ar.b(h.detour);
        ar.b(h.sr);
        ioInt(ar, h.misroutes);
        for (auto &bal : h.misBalance)
            ioI8(ar, bal);
        ar.u8(h.datelineCrossed);
        ioEnum(ar, h.flow);
        ioInt(ar, h.hops);
        ioInt(ar, h.stalled);
        ioInt(ar, h.holdIdx);
    }

    /** Message::visited; triedHere searches it in place, so the reader
     *  refuses nodes out of strictly ascending order or off @p nodes. */
    template <class Ar>
    static void
    ioHistory(Ar &ar, std::vector<std::pair<NodeId, std::uint32_t>> &hist,
              std::size_t nodes)
    {
        ioVec(ar, hist, [](Ar &a, std::pair<NodeId, std::uint32_t> &e) {
            a.i32(e.first);
            a.u32(e.second);
        });
        if constexpr (Ar::isReader) {
            NodeId last = -1;
            for (const auto &[node, ports] : hist) {
                if (node <= last || static_cast<std::size_t>(node) >= nodes)
                    return ar.fail("checkpoint message search history not "
                                   "in strictly ascending node order on "
                                   "the topology");
                last = node;
            }
        }
    }

    template <class Ar>
    static void
    io(Ar &ar, Message &m, std::size_t nodes)
    {
        ar.i64(m.id);
        ar.i32(m.src);
        ar.i32(m.dst);
        ioInt(ar, m.length);
        ar.u64(m.created);
        ar.u64(m.deliveredAt);
        ioEnum(ar, m.state);
        ar.b(m.measured);
        io(ar, m.hdr);
        ioVec(ar, m.path, [](Ar &a, PathHop &h) { io(a, h); });
        ioHistory(ar, m.visited, nodes);
        ioInt(ar, m.srcCounter);
        ioInt(ar, m.srcK);
        ar.b(m.srcHold);
        ar.b(m.srcRouted);
        ar.b(m.headerInjected);
        ar.b(m.inQueue);
        ioInt(ar, m.injectedFlits);
        ioInt(ar, m.arrivedFlits);
        ioInt(ar, m.leadHop);
        ioInt(ar, m.releasedHops);
        ar.b(m.headerAtDest);
        ar.b(m.inRcu);
        ioEnum(ar, m.teardown, Teardown::Heal, "message teardown cause");
        ioInt(ar, m.killWalks);
        ioInt(ar, m.epoch);
        ioInt(ar, m.retries);
        ar.u64(m.retryAt);
        ar.b(m.lostToFault);
        ioInt(ar, m.healAttempts);
        ar.u64(m.lastHealAt);
        ar.u64(m.healKnotHash);
        ar.u64(m.healStartedAt);
        ioInt(ar, m.cls);
        ar.b(m.isReply);
        ar.i64(m.reqId);
        ar.u64(m.reqCreated);
        ar.b(m.e2eMeasured);
        ioInt(ar, m.detoursBuilt);
        ioInt(ar, m.backtracksTaken);
        ioInt(ar, m.misroutesTaken);
    }

    template <class Ar>
    static void
    io(Ar &ar, std::uint64_t &v)
    {
        ar.u64(v);
    }

    template <class Ar>
    static void
    io(Ar &ar, Counters &c)
    {
        Counters::forEachField([&ar](auto &f) { io(ar, f); }, c);
    }

    /** A vector of any element type with an io overload. */
    template <class Ar, class T>
    static void
    io(Ar &ar, std::vector<T> &v)
    {
        ioVec(ar, v, [](Ar &a, T &x) { io(a, x); });
    }

    template <class Ar>
    static void
    io(Ar &ar, ClassStat &cs)
    {
        ClassStat::forEachField([&ar](auto &f) { io(ar, f); }, cs);
    }

    template <class Ar>
    static void
    io(Ar &ar, verify::CwgCycle &c)
    {
        ioEnum(ar, c.cls);
        ar.u64(c.at);
        ar.u64(c.hash);
        ioVec(ar, c.members, [](Ar &a, MsgId &m) { a.i64(m); });
        ar.str(c.diagnosis);
    }

    template <class Ar>
    static void
    io(Ar &ar, verify::PendingKnot &k)
    {
        io(ar, k.cycle);
        ioVec(ar, k.closure, [](Ar &a, MsgId &m) { a.i64(m); });
    }

    /**
     * The CWG tracker. Its records travel in id order: committed count,
     * waits, and out-edges with their in-DAG flags (which insertion
     * history decided). A restore puts each record on its message's
     * slot and rebuilds the per-VC waiter lists from the waits.
     */
    template <class Ar>
    static void
    io(Ar &ar, verify::CwgTracker &t, MsgId nextId)
    {
        const MessageStore &store = t.net_.messageStore();
        const std::size_t vcs = t.waiters_.size();
        const auto keyIo = [vcs](Ar &a, VcIndex &k) {
            a.u32(k);
            if constexpr (Ar::isReader) {
                if (k >= vcs)
                    a.fail("checkpoint CWG wait names no VC");
            }
        };
        ar.i64(t.evalMsg_);
        ioVec(ar, t.scratch_, keyIo);

        if constexpr (Ar::isReader) {
            t.records_.assign(store.slotCount(), {});
            t.waiters_.assign(vcs, {});
            t.waitTotal_ = 0;
        }
        std::vector<MsgId> ids;
        store.forEach([&t, &ids](const Message &m) {
            const auto *w = t.find(m.id);
            if (w && !w->empty())
                ids.push_back(m.id);
        });
        MsgId last = invalidMsg;
        ioVec(ar, ids, [&](Ar &a, MsgId &id) {
            ioRecordId(a, id, last, nextId, "CWG");
            const std::optional<std::uint32_t> slot = store.slot(id);
            if constexpr (Ar::isReader) {
                if (a.ok() && !slot)
                    a.fail("checkpoint CWG record of a message that is "
                           "not live");
            }
            if (bad(a))
                return;
            auto &w = t.records_[*slot];
            w.id = id;
            ioSz(a, w.committed);
            ioVec(a, w.waits, [&keyIo, nextId](Ar &a2, auto &r) {
                keyIo(a2, r.key);
                a2.i64(r.owner);
                if constexpr (Ar::isReader) {
                    if (r.owner < 0 || r.owner >= nextId)
                        a2.fail("checkpoint CWG wait owner out of range");
                }
            });
            ioVec(a, w.out, [](Ar &a2, auto &o) {
                a2.i64(o.to);
                a2.b(o.inDag);
            });
            if constexpr (Ar::isReader) {
                std::set<MsgId> owners, tos;
                for (const auto &r : w.waits)
                    owners.insert(r.owner);
                for (const auto &o : w.out)
                    tos.insert(o.to);
                if (bad(a) || owners != tos || tos.size() != w.out.size()) {
                    if (!bad(a))
                        a.fail("checkpoint CWG out-edges are not the "
                               "owners of the waits");
                    return;
                }
                for (const auto &r : w.waits)
                    t.waiters_[r.key].push_back(id);
                t.waitTotal_ += w.waits.size();
            }
        });

        ioMap(ar, t.seen_, [](Ar &a, auto &e) {
            a.b(e.violation);
            bool benign = e.benignSince.has_value();
            Cycle since = e.benignSince.value_or(0);
            a.b(benign);
            a.u64(since);
            if (benign)
                e.benignSince = since;
            a.b(e.warned);
        });
        // recovery_ is armed by the constructor (config-derived).
        std::vector<std::uint64_t> healing(t.healing_.begin(),
                                           t.healing_.end());
        std::sort(healing.begin(), healing.end());
        io(ar, healing);
        if constexpr (Ar::isReader)
            t.healing_ = {healing.begin(), healing.end()};
        io(ar, t.pendingKnots_);
        io(ar, t.violations_);
        io(ar, t.warnings_);
        ar.str(t.lastDiagnosis_);
        ar.u64(t.cyclesDetected_);
        ar.u64(t.benignDetected_);
        ar.u64(t.lastSweep_);
    }

    /**
     * Crossbar list of output @p port as (link, vc) pairs in mapping
     * order; the reader re-maps each after checking it.
     */
    template <class Ar>
    static void
    ioInputs(Ar &ar, DataPlane &plane, Router &rt, int port)
    {
        const std::span<const VcIndex> list = rt.mappedInputs(port);
        std::uint64_t n = list.size();
        ar.u64(n);
        if constexpr (Ar::isReader) {
            if (n > rt.listCapacity()) {
                ar.fail("checkpoint crossbar list exceeds the router's "
                        "input VCs");
                return;
            }
            for (std::uint64_t k = 0; k < n && ar.ok(); ++k) {
                std::int32_t link = 0;
                int vc = 0;
                ar.i32(link);
                ioInt(ar, vc);
                const std::size_t links =
                    plane.size() /
                    static_cast<std::size_t>(plane.vcsPerLink());
                if (link < 0 || static_cast<std::size_t>(link) >= links ||
                    vc < 0 || vc >= plane.vcsPerLink()) {
                    ar.fail("checkpoint crossbar entry names no VC");
                    return;
                }
                rt.mapInput(port, plane.index(link, vc));
            }
        } else {
            for (VcIndex in : list) {
                std::int32_t link = plane.linkOf(in);
                int vc = plane.vcOf(in);
                ar.i32(link);
                ioInt(ar, vc);
            }
        }
    }

    /** Round-robin pointer of one crossbar arbiter (at most a full list). */
    template <class Ar>
    static void
    ioArbiter(Ar &ar, Router &rt, int port)
    {
        std::size_t at = rt.rr(port);
        ioSz(ar, at);
        if constexpr (Ar::isReader) {
            if (at > rt.listCapacity()) {
                ar.fail("checkpoint arbiter pointer beyond its crossbar "
                        "list");
                return;
            }
            rt.setRr(port, at);
        }
    }

    /**
     * The message table as (id, message) pairs in id order. The reader
     * requires strictly increasing ids below the next id to issue, and
     * a window no longer than the store is meant to span.
     */
    template <class Ar>
    static void
    ioMessages(Ar &ar, MessageStore &store, MsgId nextId,
               std::size_t nodes)
    {
        std::uint64_t n = store.size();
        ar.u64(n);
        if constexpr (Ar::isReader) {
            if (n > ar.remaining()) {
                ar.fail("implausible checkpoint container size");
                return;
            }
            store.clear();
            MsgId first = invalidMsg;
            MsgId last = invalidMsg;
            for (std::uint64_t k = 0; k < n; ++k) {
                if (!ar.ok())
                    return;
                MsgId id = invalidMsg;
                ioRecordId(ar, id, last, nextId, "message");
                if (!ar.ok())
                    return;
                if (first == invalidMsg)
                    first = id;
                if (static_cast<std::uint64_t>(id - first) >=
                    maxRestoredSpan) {
                    ar.fail("checkpoint message ids span more than the "
                            "message window holds");
                    return;
                }
                Message m;
                io(ar, m, nodes);
                if (m.id != id) {
                    ar.fail("checkpoint message record under another id");
                    return;
                }
                store.insert(std::move(m));
            }
        } else {
            store.forEach([&ar, nodes](Message &m) {
                MsgId id = m.id;
                ar.i64(id);
                io(ar, m, nodes);
            });
        }
    }

    template <class Ar>
    static void
    io(Ar &ar, Network &net)
    {
        const auto msgIdIo = [](Ar &a, MsgId &m) { a.i64(m); };
        DataPlane &plane = net.plane_;
        const int radix = net.topo_->radix();

        io(ar, net.rng_);
        io(ar, net.victimRng_);
        ar.u64(net.now_);
        ar.u64(net.lastActivity_);
        ar.i64(net.nextMsgId_);
        ar.b(net.measuring_);

        ioCheckCount(ar, net.links_.size(), "link");
        for (Link &lk : net.links_) {
            if (bad(ar))
                return;
            ioCheckCount(ar, static_cast<std::size_t>(plane.vcsPerLink()),
                         "virtual-channel");
            for (int v = 0; v < plane.vcsPerLink() && !bad(ar); ++v)
                io(ar, plane, plane.index(lk.id, v), radix);
            ioVec(ar, lk.ctrlQ, [](Ar &a, Flit &f) { io(a, f); });
            ioVec(ar, lk.ackQ, [](Ar &a, Flit &f) { io(a, f); });
            ar.b(lk.faulty);
            ar.b(lk.absent);
            ar.b(lk.unsafe);
            ar.u64(lk.dataCrossings);
            ar.u64(lk.ctrlCrossings);
            ioSz(ar, lk.maxCtrlDepth);
        }

        ioCheckCount(ar, net.routers_.size(), "router");
        for (Router &rt : net.routers_) {
            if (bad(ar))
                return;
            ar.b(rt.faulty);
            ioVec(ar, rt.rcuQueue, [](Ar &a, RcuEntry &e) {
                a.i64(e.msg);
                ioInt(a, e.epoch);
            });
            ioCheckCount(ar, static_cast<std::size_t>(radix),
                         "router-port");
            if constexpr (Ar::isReader)
                rt.clearInputs();
            for (int port = 0; port <= radix && !bad(ar); ++port)
                ioInputs(ar, plane, rt, port == radix ? ejectPort : port);
            ioCheckCount(ar, static_cast<std::size_t>(radix), "arbiter");
            for (int port = 0; port <= radix && !bad(ar); ++port)
                ioArbiter(ar, rt, port == radix ? ejectPort : port);
            ioSz(ar, rt.maxRcuDepth);
            ar.u64(rt.headersRouted);
        }

        ioMessages(ar, net.messages_, net.nextMsgId_, net.routers_.size());

        ioCheckCount(ar, net.injQ_.size(), "injection-queue");
        for (auto &q : net.injQ_)
            ioVec(ar, q, msgIdIo);
        ioVec(ar, net.retryList_, msgIdIo);
        ioVec(ar, net.retired_, msgIdIo);

        io(ar, net.counters_);

        ioMap(ar, net.knotHealCount_, [](Ar &a, int &v) { ioInt(a, v); });
        ioVec(ar, net.healLog_, [](Ar &a, Network::HealRecord &h) {
            a.u64(h.at);
            a.u64(h.knotHash);
            a.i64(h.victim);
            ioInt(a, h.attempt);
        });

        for (auto &proc : net.faultProcs_) {
            ar.f64(proc.prob);
            ioInt(ar, proc.budget);
        }
        ar.u64(net.faultProcs_.back().down);  // the intermittent entry
        ioVec(ar, net.pendingRestores_, [](Ar &a, auto &pr) {
            a.i32(pr.node);
            ioInt(a, pr.port);
            a.u64(pr.at);
        });
        ar.b(net.skipKillSweep_);
        ioSz(ar, net.rrNode_);

        // The CWG analyzer is created by the constructor iff the config
        // asks for it; the flag only cross-checks that the checkpoint
        // agrees (the config digest should already have refused drift).
        bool hasCwg = net.cwg_ != nullptr;
        ar.b(hasCwg);
        if constexpr (Ar::isReader) {
            if (hasCwg != (net.cwg_ != nullptr)) {
                ar.fail("checkpoint CWG-analyzer presence does not "
                        "match the configuration");
                return;
            }
        }
        if (net.cwg_)
            io(ar, *net.cwg_, net.nextMsgId_);

        // The ready sets and the mapped-flit counts are derived state:
        // they are not serialized, just reconstructed from what was read.
        if constexpr (Ar::isReader) {
            if (!bad(ar))
                net.rebuildActivity();
        }
    }

    template <class Ar>
    static void
    io(Ar &ar, chaos::FaultSchedule &s)
    {
        const auto eventIo = [](Ar &a, FaultEvent &e) {
            a.u64(e.at);
            ioEnum(a, e.kind, FaultKind::LinkIntermittent, "fault kind");
            a.i32(e.node);
            ioInt(a, e.port);
            a.u64(e.downFor);
        };
        ioVec(ar, s.events_, eventIo);
        ioVec(ar, s.firedEvents_, eventIo);
        ioSz(ar, s.next_);
        ioSz(ar, s.fired_);
        ioSz(ar, s.skipped_);
        ar.b(s.sorted_);
    }

    /**
     * The oracle's books. Only the ids it saw created travel, as
     * (id, fields...) records in id order after their count; a restore
     * spreads them back over the table, whose size the last id sets.
     */
    template <class Ar>
    static void
    io(Ar &ar, chaos::DeliveryOracle &o, MsgId nextId)
    {
        auto &recs = o.records_;
        std::uint64_t n = static_cast<std::uint64_t>(
            std::count_if(recs.begin(), recs.end(),
                          [](const auto &r) { return r.known; }));
        ar.u64(n);
        if constexpr (Ar::isReader) {
            if (n > ar.remaining()) {
                ar.fail("implausible checkpoint container size");
                return;
            }
            recs.clear();
        }
        MsgId last = invalidMsg;
        for (std::uint64_t k = 0; k < n && !bad(ar); ++k) {
            MsgId id = last + 1;
            if constexpr (!Ar::isReader) {
                while (!recs[static_cast<std::size_t>(id)].known)
                    ++id;
            }
            ioRecordId(ar, id, last, nextId, "oracle");
            if constexpr (Ar::isReader) {
                if (!ar.ok())
                    return;
                if (static_cast<std::uint64_t>(id) >= maxRestoredSpan) {
                    ar.fail("checkpoint oracle ids beyond the table a "
                            "restore may allocate");
                    return;
                }
                recs.resize(static_cast<std::size_t>(id) + 1);
                recs.back().known = true;
            }
            auto &r = recs[static_cast<std::size_t>(id)];
            ar.i32(r.src);
            ar.i32(r.dst);
            ar.u64(r.createdAt);
            ioInt(ar, r.tails);
            ar.b(r.terminated);
            ioEnum(ar, r.outcome);
        }
        ioVec(ar, o.violations_, [](Ar &a, std::string &v) { a.str(v); });
        ar.u64(o.createdCount_);
        ar.u64(o.deliveredCount_);
        ar.u64(o.undeliverableCount_);
        ar.u64(o.lostCount_);
    }

    /** The watchdog's state; its tracks travel in id order. */
    template <class Ar>
    static void
    io(Ar &ar, chaos::Watchdog &w, MsgId nextId)
    {
        ioVec(ar, w.violations_, [](Ar &a, std::string &v) { a.str(v); });
        ar.b(w.deadlocked_);
        MsgId last = invalidMsg;
        ioVec(ar, w.tracks_, [&last, nextId](Ar &a, auto &t) {
            ioRecordId(a, t.id, last, nextId, "watchdog");
            a.u64(t.sig);
            a.u64(t.sig2);
            a.u64(t.lastChange);
            a.u64(t.lastChange2);
            a.b(t.flagged);
        });
    }

    template <class Ar>
    static void
    io(Ar &ar, Injector &inj)
    {
        // classes_/classOrder_ are pure functions of (config,
        // topology). The dynamic workload state travels: the gate, the
        // offered count, the per-(node, class) burst machines and
        // closed-loop budgets, and any replies awaiting injection-queue
        // space.
        ar.b(inj.stopped_);
        ar.u64(inj.offered_);
        ioCheckCount(ar, inj.burstOn_.size(), "burst state");
        for (auto &on : inj.burstOn_)
            ar.u8(on);
        ioCheckCount(ar, inj.outBudget_.size(), "closed-loop budget");
        for (auto &b : inj.outBudget_)
            ioInt(ar, b);
        ioVec(ar, inj.pendingReplies_,
              [](Ar &a, Injector::PendingReply &pr) {
                  a.i32(pr.src);
                  a.i32(pr.dst);
                  ioInt(a, pr.cls);
                  ioInt(a, pr.length);
                  a.i64(pr.reqId);
                  a.u64(pr.reqCreated);
                  a.b(pr.e2eMeasured);
              });
    }

    template <class Ar>
    static void
    ioCampaign(Ar &ar, chaos::CampaignState &st)
    {
        ar.u8(st.phase);
        io(ar, *st.net);
        io(ar, *st.faultRng);
        io(ar, *st.schedule);
        // The network comes first: its next id bounds the tables below.
        io(ar, *st.oracle, st.net->nextMsgId_);
        io(ar, *st.watchdog, st.net->nextMsgId_);
        io(ar, *st.injector);
    }
};

namespace chaos {

void
serializeCampaign(obs::CkWriter &w, CampaignState &st)
{
    SnapshotAccess::ioCampaign(w, st);
}

bool
deserializeCampaign(obs::CkReader &r, CampaignState &st)
{
    SnapshotAccess::ioCampaign(r, st);
    return r.ok();
}

std::uint64_t
campaignStateDigest(CampaignState &st)
{
    obs::CkWriter w;
    serializeCampaign(w, st);
    return w.payloadDigest();
}

bool
writeCampaignCheckpoint(const std::string &path,
                        std::uint64_t config_digest, CampaignState &st,
                        std::string *error)
{
    obs::CkWriter w;
    serializeCampaign(w, st);

    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            *error = "cannot open " + tmp + " for writing";
            return false;
        }
        w.writeTo(os, config_digest);
        os.flush();
        if (!os) {
            *error = "write to " + tmp + " failed";
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        *error = "cannot rename " + tmp + " to " + path;
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
readCampaignCheckpoint(const std::string &path,
                       std::uint64_t config_digest, CampaignState &st,
                       std::string *error)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        *error = "cannot open checkpoint " + path;
        return false;
    }
    obs::CkReader r(is);
    if (!r.ok()) {
        *error = r.error();
        return false;
    }
    if (r.info().configDigest != config_digest) {
        std::ostringstream os;
        os << "checkpoint was recorded under a different campaign spec "
              "(config digest "
           << std::hex << r.info().configDigest << ", expected "
           << config_digest << ")";
        *error = os.str();
        return false;
    }
    if (!deserializeCampaign(r, st)) {
        *error = r.error();
        return false;
    }
    r.finish();
    if (!r.ok()) {
        *error = r.error();
        return false;
    }
    return true;
}

} // namespace chaos
} // namespace tpnet
