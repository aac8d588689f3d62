#include "core/network.hpp"

#include <algorithm>

#include "sim/log.hpp"

namespace tpnet {

Network::Network(const SimConfig &cfg)
    : cfg_(cfg),
      topo_(makeTopology(cfg)),
      rng_(cfg.seed),
      proto_(cfg),
      victimRng_(cfg.seed ^ 0x5EED5EEDC4A0B0D5ull)
{
    cfg_.validate();

    links_.resize(static_cast<std::size_t>(topo_->links()));
    for (NodeId node = 0; node < topo_->nodes(); ++node) {
        for (int port = 0; port < topo_->radix(); ++port) {
            const LinkId id = topo_->linkId(node, port);
            const NodeId nbr = topo_->neighbor(node, port);
            Link &lk = links_[static_cast<std::size_t>(id)];
            lk.init(id, node, port, nbr, topo_->arrivalPort(node, port));
            if (!topo_->portPresent(node, port)) {
                // Structurally absent channels (mesh wraparound edges).
                lk.absent = true;
                lk.faulty = true;
            }
        }
    }

    plane_.init(links_.size(), cfg_.vcsPerLink(), cfg_.bufDepth);

    routers_.resize(static_cast<std::size_t>(topo_->nodes()));
    for (NodeId node = 0; node < topo_->nodes(); ++node)
        routers_[static_cast<std::size_t>(node)].init(node, topo_->radix(),
                                                      cfg_.vcsPerLink());
    listFlits_.assign(routers_.size() *
                          (static_cast<std::size_t>(topo_->radix()) + 1),
                      0);

    injQ_.resize(static_cast<std::size_t>(topo_->nodes()));

    if (cfg_.verifyCwg || cfg_.recoveryMode)
        cwg_ = std::make_unique<verify::CwgTracker>(*this);
    if (cfg_.recoveryMode)
        cwg_->armRecovery();

    // Size the ready sets before faults are placed: failNode and
    // killAffectedCircuits deregister entities as they clear queues.
    rcuActive_.reset(routers_.size());
    ctrlActive_.reset(links_.size());
    dataActive_.reset(routers_.size());

    applyStaticFaults();
    rebuildActivity();
}

void
Network::rebuildActivity()
{
    rcuActive_.reset(routers_.size());
    ctrlActive_.reset(links_.size());
    dataActive_.reset(routers_.size());
    for (const Router &rt : routers_) {
        if (!rt.faulty && !rt.rcuQueue.empty())
            rcuActive_.add(static_cast<std::uint32_t>(rt.id));
    }
    for (const Link &lk : links_) {
        if (!lk.ctrlQ.empty() || !lk.ackQ.empty())
            ctrlActive_.add(static_cast<std::uint32_t>(lk.id));
    }
    const NodeId nodes = static_cast<NodeId>(routers_.size());
    for (NodeId node = 0; node < nodes; ++node) {
        const Router &rt = routers_[static_cast<std::size_t>(node)];
        for (int port = ejectPort; port < topo_->radix(); ++port) {
            if (port == -1)
                continue;
            std::uint32_t flits = 0;
            for (VcIndex in : rt.mappedInputs(port))
                flits += static_cast<std::uint32_t>(plane_[in].size());
            listFlits_[listSlot(node, port)] = flits;
        }
        if (!nodeFaulty(node) && !dataNodeIdle(node))
            dataActive_.add(static_cast<std::uint32_t>(node));
    }
    lastMoves_ = counters_.tokenMoves();
}

bool
Network::idle() const
{
    if (!cfg_.eventEngine)
        return false;
    if (!rcuActive_.empty() || !ctrlActive_.empty() ||
        !dataActive_.empty()) {
        return false;
    }
    if (!retired_.empty())
        return false;
    // Armed Bernoulli fault processes draw RNG every cycle; skipping
    // would desynchronize the stream.
    for (const FaultProcess &proc : faultProcs_) {
        if (proc.budget > 0 && proc.prob > 0.0)
            return false;
    }
    // A due-but-blocked restore re-tries its (state-dependent)
    // re-validation every cycle; don't reason about when it unblocks.
    for (const PendingRestore &pr : pendingRestores_) {
        if (pr.at <= now_)
            return false;
    }
    if (cwg_ && !cwg_->idleForSkip())
        return false;
    return true;
}

Cycle
Network::nextInternalEvent() const
{
    Cycle next = cycleNever;
    for (MsgId id : retryList_) {
        const Message *msg = messages_.find(id);
        if (msg && msg->state == MsgState::WaitRetry && msg->retryAt < next)
            next = msg->retryAt;
    }
    for (const PendingRestore &pr : pendingRestores_)
        next = std::min(next, pr.at);
    // The watchdog panic is observable behavior: never skip past it.
    if (cfg_.watchdog != 0 && !quiescent())
        next = std::min(next, lastActivity_ + cfg_.watchdog + 1);
    return next;
}

void
Network::skipTo(Cycle target)
{
    if (target <= now_)
        return;
    const Cycle skipped = target - now_;
    rrNode_ = (rrNode_ + static_cast<std::size_t>(
                             skipped % static_cast<Cycle>(routers_.size()))) %
              routers_.size();
    if (cwg_)
        cwg_->skipTo(target - 1);
    now_ = target;
}

Message &
Network::message(MsgId id)
{
    Message *m = findMessage(id);
    if (!m)
        tpnet_panic("message ", id, " not found");
    return *m;
}

bool
Network::offerMessage(NodeId src, NodeId dst)
{
    return offerMessage(src, dst, OfferSpec{});
}

ClassStat *
Network::classStat(int cls)
{
    if (counters_.classes.empty())
        return nullptr;
    if (cls < 0 || cls >= static_cast<int>(counters_.classes.size()))
        tpnet_panic("traffic class ", cls, " out of range");
    return &counters_.classes[static_cast<std::size_t>(cls)];
}

bool
Network::offerMessage(NodeId src, NodeId dst, const OfferSpec &spec)
{
    if (nodeFaulty(src) || nodeFaulty(dst))
        tpnet_panic("traffic offered at/to a failed node");
    auto &queue = injQ_[static_cast<std::size_t>(src)];
    if (queue.size() >= static_cast<std::size_t>(cfg_.injQueueLimit)) {
        ++counters_.notAccepted;
        return false;
    }

    const MsgId id = nextMsgId_++;
    Message msg;
    msg.id = id;
    msg.src = src;
    msg.dst = dst;
    msg.length = spec.length > 0 ? spec.length : cfg_.msgLength;
    msg.created = now_;
    msg.measured = measuring_;
    msg.cls = spec.cls;
    msg.isReply = spec.isReply;
    msg.reqId = spec.reqId;
    msg.reqCreated = spec.reqCreated;
    msg.e2eMeasured = spec.e2eMeasured;
    startAttempt(msg);
    Message &stored = messages_.insert(std::move(msg));
    queue.push_back(id);
    ++counters_.generated;
    if (measuring_)
        ++counters_.measuredGenerated;
    if (ClassStat *cs = classStat(spec.cls)) {
        ++cs->generated;
        if (measuring_)
            ++cs->measuredGenerated;
    }
    if (trace_)
        trace_->messageCreated(now_, stored);

    if (queue.front() == id)
        activateFront(src);
    return true;
}

void
Network::startAttempt(Message &msg) const
{
    msg.hdr = HeaderState{};
    msg.hdr.cur = msg.src;
    msg.hdr.offset = topo_->offsets(msg.src, msg.dst);
    msg.hdr.flow = proto_.initialFlow();
    msg.srcK = proto_.kRegFor(msg);  // the injection channel's K register
    msg.srcHold = msg.hdr.flow == FlowMode::PcsSetup;
}

void
Network::activateFront(NodeId node)
{
    auto &queue = injQ_[static_cast<std::size_t>(node)];
    if (queue.empty())
        return;
    Message *msg = findMessage(queue.front());
    if (!msg)
        tpnet_panic("stale message at injection queue front");
    if (msg->state != MsgState::Queued)
        return;  // WaitRetry front wakes by itself; Active already going
    msg->state = MsgState::Active;
    stamp(*msg, Progress::Advance);
    dataWake(node);
    if (!msg->inRcu) {
        enqueueRcu(node, {msg->id, msg->epoch});
        msg->inRcu = true;
    }
}

void
Network::step()
{
    wakeRetries();
    phaseRcu();
    phaseControl();
    phaseData();
    stepDynamicFaults();
    stepRestores();
    retireMessages();
    if (cwg_) {
        cwg_->onCycleEnd(now_);
        // Recovery mode: heal the knots the tracker just confirmed
        // before the strict check below, so a heal-budget escalation
        // surfaces as a violation this same cycle.
        if (cfg_.recoveryMode)
            stepHeals();
        // In strict/CLI mode a violation (escape cycle or knot) is
        // fatal, like the plain watchdog. Campaigns run with
        // watchdog == 0 and collect the diagnoses instead. Persistent
        // warnings are never fatal.
        if (cfg_.watchdog != 0 && !cwg_->violations().empty()) {
            tpnet_panic("CWG deadlock violation at cycle ", now_, ": ",
                        cwg_->violations().front().diagnosis);
        }
    }
    // The progress clock: offers and strikes made since the last step
    // count towards this cycle.
    const std::uint64_t moves = counters_.tokenMoves();
    if (moves != lastMoves_) {
        lastMoves_ = moves;
        lastActivity_ = now_;
    }
    checkWatchdog();
    ++now_;
}

void
Network::phaseRcu()
{
    const std::size_t nodes = routers_.size();
    if (!cfg_.eventEngine) {
        for (std::size_t i = 0; i < nodes; ++i) {
            Router &rt = routers_[(i + rrNode_) % nodes];
            if (!rt.faulty)
                rcuVisit(rt);
        }
        return;
    }
    // Event engine: visit only routers with queued RCU entries, in the
    // same rotation order the full scan uses. Routers activated
    // mid-pass at a rotation key ahead of the cursor (e.g. a teardown
    // completing synchronously re-queues its source) merge into this
    // pass exactly where the full scan would have reached them.
    rcuActive_.beginPass(rrNode_);
    for (std::uint32_t id; (id = rcuActive_.next()) != ActivitySet::kNone;) {
        Router &rt = routers_[id];
        if (rt.faulty) {
            rcuActive_.remove(id);
            continue;
        }
        rcuVisit(rt);
        if (rt.rcuQueue.empty())
            rcuActive_.remove(id);
    }
}

void
Network::rcuVisit(Router &rt)
{
    ++work_.rcuVisits;
    if (rt.rcuQueue.size() > rt.maxRcuDepth)
        rt.maxRcuDepth = rt.rcuQueue.size();
    // Serve one header per cycle; skip over stale entries of killed
    // or retired messages without consuming the service slot.
    while (!rt.rcuQueue.empty()) {
        const RcuEntry entry = rt.rcuQueue.front();
        rt.rcuQueue.pop_front();
        Message *msg = findMessage(entry.msg);
        if (!msg || entry.epoch != msg->epoch || msg->tearingDown() ||
            msg->terminal() || msg->state == MsgState::WaitRetry) {
            if (msg && entry.epoch == msg->epoch)
                msg->inRcu = false;
            continue;
        }
        if (serveHeader(*msg)) {
            ++rt.headersRouted;
        } else if (msg->inRcu) {
            // Blocked: rotate to the back, re-try next cycle.
            rt.rcuQueue.push_back(entry);
        }
        break;
    }
}

void
Network::phaseData()
{
    const std::size_t nodes = routers_.size();
    if (!cfg_.eventEngine) {
        for (std::size_t i = 0, n = rrNode_; i < nodes; ++i) {
            if (!routers_[n].faulty)
                dataVisit(static_cast<NodeId>(n));
            if (++n == nodes)
                n = 0;
        }
    } else {
        // Visit only nodes with buffered data or an injectable queue
        // front, in rotation order; nodes woken mid-pass ahead of the
        // cursor (e.g. an inline probe ejecting maps a VC holding
        // already-ready flits at its destination) merge into the pass.
        dataActive_.beginPass(rrNode_);
        for (std::uint32_t id;
             (id = dataActive_.next()) != ActivitySet::kNone;) {
            const NodeId node = static_cast<NodeId>(id);
            if (routers_[id].faulty) {
                dataActive_.remove(id);
                continue;
            }
            dataVisit(node);
            if (dataNodeIdle(node))
                dataActive_.remove(id);
        }
    }
    if (++rrNode_ == nodes)
        rrNode_ = 0;
}

void
Network::dataVisit(NodeId node)
{
    ++work_.dataVisits;
    Router &rt = routers_[static_cast<std::size_t>(node)];
    const std::uint32_t *buffered = &listFlits_[listSlot(node, 0)];
    const int radix = topo_->radix();

    // --- Ejection: one flit per node per cycle --------------------
    const std::span<const VcIndex> ej = buffered[radix] > 0
        ? rt.ejectInputs()
        : std::span<const VcIndex>{};
    if (!ej.empty()) {
        const std::size_t ejn = ej.size();
        const std::size_t rr = rt.rr(ejectPort);
        std::size_t pick = rr < ejn ? rr : rr % ejn;
        for (std::size_t e = 0; e < ejn; ++e) {
            const VcIndex in = ej[pick];
            if (++pick == ejn)
                pick = 0;
            const VcState &vc = plane_[in];
            if (vc.empty() || !vc.dataEnabled() || vc.frontReady > now_)
                continue;
            const Flit flit = popData(node, in);
            rt.setRr(ejectPort, pick);
            Message *msg = findMessage(flit.msg);
            if (msg && !msg->tearingDown())
                deliverFlit(*msg, flit);
            break;
        }
    }

    // --- One data flit per output link ----------------------------
    // Only the injection queue's front can inject, and only on its
    // path[0] port; resolve it once, again after a move whose side
    // effects could reach it (header, tail, or its own flit).
    const auto &queue = injQ_[static_cast<std::size_t>(node)];
    MsgId front = queue.empty() ? invalidMsg : queue.front();
    int injPort = injectionPort(node);
    for (int port = 0; port < radix; ++port) {
        // A list whose inputs hold no flit has nothing to arbitrate.
        const std::span<const VcIndex> cands = buffered[port] > 0
            ? rt.mappedInputs(port)
            : std::span<const VcIndex>{};
        if (cands.empty() && port != injPort)
            continue;
        // A failed output refuses both (tryMoveData, tryInjectOn).
        bool moved = false;
        if (!cands.empty()) {
            const std::size_t cn = cands.size();
            const std::size_t rr = rt.rr(port);
            std::size_t pick = rr < cn ? rr : rr % cn;
            Flit flit;
            for (std::size_t c = 0; c < cn; ++c) {
                if (tryMoveData(cands[pick], node, flit)) {
                    rt.setRr(port, pick + 1);
                    moved = true;
                    if (flit.type != FlitType::Data || flit.msg == front) {
                        front = queue.empty() ? invalidMsg : queue.front();
                        injPort = injectionPort(node);
                    }
                    break;
                }
                if (++pick == cn)
                    pick = 0;
            }
        }
        if (!moved && port == injPort && tryInjectOn(node, port)) {
            front = queue.empty() ? invalidMsg : queue.front();
            injPort = injectionPort(node);
        }
    }
}

int
Network::injectionPort(NodeId node)
{
    const auto &queue = injQ_[static_cast<std::size_t>(node)];
    if (queue.empty())
        return -1;
    const Message *msg = findMessage(queue.front());
    if (!msg || msg->state != MsgState::Active || !msg->srcRouted ||
        msg->tearingDown()) {
        return -1;
    }
    if (msg->path.empty())
        tpnet_panic("srcRouted message with empty path");
    // Dense link ids: the links out of node are linkId(node, 0) + port.
    const LinkId port = msg->path[0].link - topo_->linkId(node, 0);
    return port >= 0 && port < topo_->radix() ? port : -1;
}

bool
Network::dataNodeIdle(NodeId node) const
{
    const std::uint32_t *buffered = &listFlits_[listSlot(node, 0)];
    for (int l = 0; l <= topo_->radix(); ++l) {
        if (buffered[l] > 0)
            return false;
    }
    const auto &queue = injQ_[static_cast<std::size_t>(node)];
    if (!queue.empty()) {
        const Message *msg = messages_.find(queue.front());
        if (msg && msg->state == MsgState::Active && msg->srcRouted &&
            !msg->tearingDown()) {
            return false;
        }
    }
    return true;
}

inline bool
Network::tryMoveData(VcIndex in, NodeId node, Flit &moved)
{
    // The rejects read only the two VcStates and stay inline in the
    // arbiter's loop; the move itself is out of line.
    ++work_.moveAttempts;
    const VcState &vc = plane_[in];
    if (vc.empty()) {
        ++work_.rejectEmpty;
        return false;
    }
    if (!vc.dataEnabled()) {
        ++work_.rejectGated;
        return false;
    }
    if (vc.frontReady > now_) {
        ++work_.rejectNotReady;
        return false;
    }
    if (vc.outPort < 0) {
        ++work_.rejectUnmapped;
        return false;
    }
    const LinkId outId = topo_->linkId(node, vc.outPort);
    const VcIndex target = plane_.index(outId, vc.outVc);
    const VcState &tvc = plane_[target];
    if (plane_.full(target)) {
        ++work_.rejectFull;
        return false;
    }
    if (tvc.owner != vc.owner) {
        // The downstream trio was released by a teardown walk that has
        // not yet reached (and purged) this hop: hold the data here.
        ++work_.rejectOwner;
        return false;
    }
    return moveFlit(in, node, outId, moved);
}

bool
Network::moveFlit(VcIndex in, NodeId node, LinkId outId, Flit &moved)
{
    const VcState &vc = plane_[in];
    const VcIndex target = plane_.index(outId, vc.outVc);
    Link &out = link(outId);
    if (out.faulty) {
        ++work_.rejectFaulty;
        return false;
    }

    Flit flit = popData(node, in);
    ++flit.hopIdx;
    flit.readyAt = now_ + 1;
    pushData(out, target, flit);
    moved = flit;
    ++work_.moves;
    ++out.dataCrossings;
    ++counters_.dataCrossings;
    if (trace_)
        trace_->flitCrossed(now_, out, vc.outVc, flit, false);

    // A mid-message data flit only proves its message live; the header,
    // the lead flit and the tail also update it.
    const bool updates = flit.type != FlitType::Data || flit.seq == 1;
    Message *msg = nullptr;
    if (updates)
        msg = findMessage(flit.msg);
    else
        ++work_.messageLookups;
    if (updates ? !msg : !messages_.contains(flit.msg))
        tpnet_panic("data flit of retired message in flight: msg=",
                    flit.msg, " type=", flitTypeName(flit.type),
                    " seq=", flit.seq, " hop=", flit.hopIdx,
                    " link=", plane_.linkOf(in), " vc=", plane_.vcOf(in),
                    " owner=", vc.owner);
    if (!updates)
        return true;

    if (flit.type == FlitType::Header) {
        // Inline wormhole probe made a hop.
        probeArrived(*msg, flit.hopIdx);
    } else {
        if (flit.seq == 1) {
            msg->leadHop = flit.hopIdx;
            stamp(*msg, Progress::Advance);
        }
        if (flit.type == FlitType::Tail && !cfg_.tailAck)
            releaseHop(*msg, flit.hopIdx - 1, false);
    }
    return true;
}

bool
Network::tryInjectOn(NodeId node, int port)
{
    ++work_.injectAttempts;
    auto &queue = injQ_[static_cast<std::size_t>(node)];
    if (queue.empty())
        return false;
    Message *msg = findMessage(queue.front());
    if (!msg || msg->state != MsgState::Active || !msg->srcRouted ||
        msg->tearingDown()) {
        return false;
    }
    if (msg->path.empty())
        tpnet_panic("srcRouted message with empty path");
    if (msg->path[0].link != topo_->linkId(node, port))
        return false;

    // Source-side flow control gate (the injection channel's CMU),
    // checked before the channel so a closed gate touches no link.
    const bool header = proto_.inlineHeader() && !msg->headerInjected;
    if (!header && (msg->srcHold || msg->srcCounter < msg->srcK ||
                    msg->injectedFlits >= msg->length)) {
        return false;
    }

    Link &first = link(msg->path[0].link);
    if (first.faulty)
        return false;
    const VcIndex target = plane_.index(first.id, msg->path[0].vc);
    if (plane_[target].owner != msg->id || plane_.full(target))
        return false;

    if (header) {
        Flit flit;
        flit.type = FlitType::Header;
        flit.msg = msg->id;
        flit.seq = 0;
        flit.hopIdx = 0;
        flit.readyAt = now_ + 1;
        pushData(first, target, flit);
        ++work_.injections;
        msg->headerInjected = true;
        ++counters_.dataCrossings;
        if (trace_) {
            trace_->flitInjected(now_, node, flit);
            trace_->flitCrossed(now_, first, msg->path[0].vc, flit, false);
        }
        // The inline probe just crossed the first reserved hop.
        probeArrived(*msg, 0);
        return true;
    }

    Flit flit;
    flit.msg = msg->id;
    flit.seq = msg->injectedFlits + 1;
    flit.type = flit.seq == msg->length ? FlitType::Tail : FlitType::Data;
    flit.hopIdx = 0;
    flit.readyAt = now_ + 1;
    pushData(first, target, flit);
    ++work_.injections;
    ++msg->injectedFlits;
    stamp(*msg, Progress::Advance);
    if (flit.seq == 1)
        msg->leadHop = 0;
    ++counters_.dataCrossings;
    if (trace_) {
        trace_->flitInjected(now_, node, flit);
        trace_->flitCrossed(now_, first, msg->path[0].vc, flit, false);
    }

    if (msg->injectedFlits == msg->length) {
        // Tail has left the PE; the injection channel frees up.
        queue.pop_front();
        msg->inQueue = false;
        activateFront(node);
    }
    return true;
}

void
Network::deliverFlit(Message &msg, const Flit &flit)
{
    if (trace_)
        trace_->flitDelivered(now_, msg.dst, flit);
    if (flit.type == FlitType::Header)
        return;  // inline probe consumed at the destination PE

    ++msg.arrivedFlits;
    stamp(msg, Progress::Advance);
    ++counters_.dataFlitsDelivered;
    if (measuring_)
        ++counters_.windowDataFlits;
    if (ClassStat *cs = classStat(msg.cls)) {
        if (measuring_)
            ++cs->windowDataFlits;
    }
    if (flit.seq == 1)
        msg.leadHop = leadEjected;

    if (flit.type != FlitType::Tail)
        return;

    // Tail delivered: the message is complete end-to-end.
    msg.deliveredAt = now_;
    ++counters_.delivered;
    if (msg.measured) {
        ++counters_.measuredDelivered;
        const double lat = static_cast<double>(now_ - msg.created);
        counters_.latency.add(lat);
        counters_.latencyHist.add(lat);
    }
    if (ClassStat *cs = classStat(msg.cls)) {
        ++cs->delivered;
        if (msg.measured) {
            ++cs->measuredDelivered;
            cs->latency.add(static_cast<double>(now_ - msg.created));
        }
    }
    // Closed-loop end-to-end latency: request creation to reply tail.
    if (msg.isReply && msg.e2eMeasured)
        counters_.e2eLatency.add(static_cast<double>(now_ - msg.reqCreated));

    const int last = static_cast<int>(msg.path.size()) - 1;
    if (cfg_.tailAck) {
        // Hold the path; destination returns a message acknowledgment
        // over the complementary channels (Fig. 17, "with TAck").
        msg.state = MsgState::Delivered;
        releaseHop(msg, last, false);
        ++counters_.msgAcks;
        Flit ack;
        ack.type = FlitType::MsgAck;
        ack.msg = msg.id;
        ack.hopIdx = last - 1;
        ack.epoch = msg.epoch;
        ack.readyAt = now_ + 1;
        relayUpstream(msg, ack);
    } else {
        releaseHop(msg, last, false);
        msg.state = MsgState::Complete;
        retired_.push_back(msg.id);
    }
}

void
Network::releaseHop(Message &msg, int idx, bool purge)
{
    if (idx < 0 || idx >= static_cast<int>(msg.path.size()))
        return;
    PathHop &hop = msg.path[static_cast<std::size_t>(idx)];
    Link &lk = link(hop.link);
    const VcIndex in = plane_.index(hop.link, hop.vc);
    VcState &vc = plane_[in];
    if (vc.owner != msg.id)
        return;  // already released (idempotent under recovery races)

    if (purge) {
        while (!vc.empty())
            popData(lk.dst, in);
    } else if (!vc.empty()) {
        tpnet_panic("releasing a VC with resident flits");
    }

    if (trace_)
        trace_->vcReleased(now_, lk, hop.vc, msg, idx);
    unmapVc(lk.dst, in);
    vc.release();
    if (cwg_)
        cwg_->onVcReleased(hop.link, hop.vc);
    if (idx >= msg.releasedHops) {
        msg.releasedHops = idx + 1;
        stamp(msg, Progress::Advance);
    }
}

void
Network::retireMessages()
{
    for (MsgId id : retired_) {
        const Message *found = messages_.find(id);
        if (!found)
            continue;
        const Message &msg = *found;
        if (!msg.terminal())
            tpnet_panic("retiring non-terminal message");
        if (trace_) {
            const MsgOutcome outcome =
                msg.state == MsgState::Complete ? MsgOutcome::Delivered
                : msg.lostToFault              ? MsgOutcome::Lost
                                               : MsgOutcome::Undeliverable;
            trace_->messageTerminal(now_, msg, outcome);
        }
        if (cwg_)
            cwg_->onMessageGone(id);
        if (retire_)
            retire_->messageRetired(now_, msg);
        messages_.erase(id);
    }
    retired_.clear();
}

void
Network::mapVc(NodeId node, VcIndex i, int port, int out_vc)
{
    VcState &vc = plane_[i];
    vc.routed = true;
    vc.outPort = static_cast<std::int8_t>(port);
    vc.outVc = static_cast<std::int8_t>(out_vc);
    router(node).mapInput(port, i);
    listFlits_[listSlot(node, port)] += static_cast<std::uint32_t>(vc.size());
}

void
Network::unmapVc(NodeId node, VcIndex i)
{
    VcState &vc = plane_[i];
    if (!vc.routed)
        return;
    router(node).unmapInput(vc.outPort, i);
    listFlits_[listSlot(node, vc.outPort)] -=
        static_cast<std::uint32_t>(vc.size());
    vc.routed = false;
    vc.outPort = -1;
    vc.outVc = -1;
}

void
Network::checkWatchdog()
{
    if (cfg_.watchdog == 0 || quiescent())
        return;
    if (now_ - lastActivity_ > cfg_.watchdog) {
        tpnet_panic("deadlock watchdog: no activity for ",
                    now_ - lastActivity_, " cycles with ", activeMessages(),
                    " live messages at cycle ", now_);
    }
}

std::size_t
Network::injQueueLen(NodeId node) const
{
    return injQ_[static_cast<std::size_t>(node)].size();
}

} // namespace tpnet
