/** @file The whole-harness state hash: the hasher's byte encoding,
 *  determinism, sensitivity to every harness component, the pinned
 *  digests, and the replay property — a campaign rerun from cycle 0
 *  finishes bit-identical to the first run. */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/oracle.hpp"
#include "chaos/report.hpp"
#include "chaos/snapshot.hpp"
#include "core/network.hpp"
#include "helpers.hpp"
#include "obs/digest.hpp"
#include "traffic/injector.hpp"

namespace tpnet {
namespace {

using namespace chaos;

TEST(StateHash, PrimitivesFoldLittleEndianBytes)
{
    // Each primitive folds the little-endian bytes of its width; a
    // string folds its length, then its bytes; a double its bit pattern.
    obs::StateHasher h;
    h.u8(0xab);
    h.u32(0xdeadbeef);
    h.u64(0x0123456789abcdefull);
    h.i32(-12345);
    h.i64(-9876543210ll);
    h.f64(-0.125e-3);
    h.b(true);
    h.str("knot \"quoted\"\nline");

    std::vector<std::uint8_t> bytes;
    const auto le = [&bytes](std::uint64_t v, int width) {
        for (int i = 0; i < width; ++i)
            bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    le(0xab, 1);
    le(0xdeadbeef, 4);
    le(0x0123456789abcdefull, 8);
    le(static_cast<std::uint32_t>(-12345), 4);
    le(static_cast<std::uint64_t>(-9876543210ll), 8);
    const double d = -0.125e-3;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    le(bits, 8);
    le(1, 1);
    const std::string s = "knot \"quoted\"\nline";
    le(s.size(), 8);
    bytes.insert(bytes.end(), s.begin(), s.end());

    EXPECT_EQ(h.digest(), obs::fnv1a64(bytes.data(), bytes.size()));
    EXPECT_EQ(obs::StateHasher().digest(), obs::fnv1a64(nullptr, 0));
}

/** Build a live harness, step it, and hand back the pieces. */
struct Harness
{
    SimConfig cfg;
    Network net;
    Rng faultRng;
    FaultSchedule schedule;
    DeliveryOracle oracle;
    Watchdog watchdog;
    Injector injector;

    explicit Harness(const SimConfig &c)
        : cfg(c), net(cfg), faultRng(5), oracle(net),
          watchdog(net, WatchdogConfig{}), injector(net)
    {
        schedule.add({40, FaultKind::NodeKill, 5, -1, 0});
        net.attachTrace(&oracle);
    }

    ~Harness() { net.attachTrace(nullptr); }

    void
    run(Cycle cycles)
    {
        for (Cycle c = 0; c < cycles; ++c) {
            schedule.apply(net, faultRng);
            injector.step();
            net.step();
            watchdog.observe();
        }
    }

    std::uint64_t
    digest() const
    {
        return campaignStateDigest(
            {&net, &faultRng, &schedule, &oracle, &watchdog, &injector});
    }
};

SimConfig
harnessConfig()
{
    SimConfig cfg = test::smallConfig(Protocol::TwoPhase, 4, 2);
    cfg.msgLength = 8;
    cfg.load = 0.05;
    cfg.watchdog = 0;
    cfg.validate();
    return cfg;
}

TEST(StateHash, HashingTwiceIsDeterministic)
{
    Harness h(harnessConfig());
    h.run(200);
    EXPECT_EQ(h.digest(), h.digest());
}

TEST(StateHash, EqualHarnessesHashAlike)
{
    // Two harnesses of one config stepped alike hash alike; one that
    // was never stepped does not.
    const SimConfig cfg = harnessConfig();
    Harness a(cfg), b(cfg), fresh(cfg);
    a.run(200);
    b.run(200);
    ASSERT_GT(a.net.activeMessages(), 0u);
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_NE(a.digest(), fresh.digest());
}

/** First live message of @p net (the test fails without one). */
MsgId
firstLive(const Network &net)
{
    MsgId first = invalidMsg;
    net.messageStore().forEach([&first](const Message &m) {
        if (first == invalidMsg)
            first = m.id;
    });
    EXPECT_NE(first, invalidMsg);
    return first;
}

TEST(StateHash, EveryComponentMovesTheDigest)
{
    // Twin harnesses stepped alike; one edit to one component of the
    // second must move its digest away from the first's.
    struct Row
    {
        const char *what;
        std::function<void(Harness &)> edit;
    };
    const Row rows[] = {
        {"network RNG", [](Harness &h) { h.net.rng().next(); }},
        {"fault RNG", [](Harness &h) { h.faultRng.next(); }},
        {"fault timeline",
         [](Harness &h) {
             h.schedule.add({900, FaultKind::NodeKill, 3, -1, 0});
         }},
        {"injector gate", [](Harness &h) { h.injector.stop(); }},
        {"oracle books", [](Harness &h) { h.oracle.finalCheck(); }},
        {"VC counter", [](Harness &h) { ++h.net.vc(0, 0).counter; }},
        {"message search history",
         [](Harness &h) {
             h.net.message(firstLive(h.net)).visited.push_back({15, 1});
         }},
        {"message retries",
         [](Harness &h) { ++h.net.message(firstLive(h.net)).retries; }},
        {"control lane",
         [](Harness &h) {
             Flit f;
             f.type = FlitType::KillUp;
             h.net.link(0).ctrlQ.push_back(f);
         }},
    };
    for (const Row &row : rows) {
        Harness a(harnessConfig()), b(harnessConfig());
        a.run(200);
        b.run(200);
        ASSERT_EQ(a.digest(), b.digest()) << row.what;
        row.edit(b);
        EXPECT_NE(a.digest(), b.digest()) << row.what;
    }
}

TEST(StateHash, CwgWaitRecordsEnterTheHash)
{
    // Message 0 blocked by hand on a trio message 1 owns: the CWG's
    // wait record is the only difference between the twins.
    SimConfig cfg = harnessConfig();
    cfg.load = 0.0;
    cfg.verifyCwg = true;
    Harness a(cfg), b(cfg);
    for (Harness *h : {&a, &b}) {
        ASSERT_TRUE(h->net.offerMessage(4, 11));
        ASSERT_TRUE(h->net.offerMessage(5, 11));
        const int avc = h->net.escapeVcCount();
        h->net.vc(h->net.linkAt(0, 0).id, avc).reserve(1, 0, false);
    }
    ASSERT_EQ(a.digest(), b.digest());
    verify::CwgTracker &cwg = *b.net.cwg();
    Message &msg = b.net.message(0);
    cwg.beginEvaluation(msg);
    cwg.noteCandidate(0, 0, b.net.escapeVcCount());
    cwg.onBlocked(msg);
    ASSERT_GT(cwg.edgeCount(), 0u);
    EXPECT_NE(a.digest(), b.digest());
}

/** Cheap campaign with live faults for the golden-digest tests. */
CampaignSpec
ckCampaignSpec(std::uint64_t seed)
{
    CampaignSpec spec;
    spec.cfg = test::smallConfig(Protocol::TwoPhase, 4, 2);
    spec.cfg.msgLength = 8;
    spec.cfg.load = 0.05;
    spec.cfg.maxRetries = 6;
    spec.seed = seed;
    spec.injectCycles = 400;
    spec.drainCycles = 50000;
    spec.faults.horizon = 400;
    spec.faults.earliest = 30;
    spec.faults.nodeKills = 1;
    spec.faults.linkKills = 1;
    spec.faults.intermittents = 1;
    spec.faults.downMin = 50;
    spec.faults.downMax = 100;
    return spec;
}

/** The replay property, for one spec variant. */
void
expectReplayBitIdentical(const CampaignSpec &spec, const std::string &tag)
{
    CampaignDigests da, db;
    const CampaignResult a = runCampaign(spec, &da);
    const CampaignResult b = runCampaign(spec, &db);
    EXPECT_EQ(campaignJson(a), campaignJson(b)) << tag;
    EXPECT_EQ(da.trace, db.trace) << tag;
    EXPECT_EQ(da.records, db.records) << tag;
    EXPECT_EQ(da.state, db.state) << tag;
    EXPECT_NE(da.trace, 0u) << tag;
    EXPECT_GT(da.records, 0u) << tag;
    EXPECT_NE(da.state, 0u) << tag;
}

TEST(CampaignReplay, ReplayIsBitIdenticalBaseline)
{
    expectReplayBitIdentical(ckCampaignSpec(11), "base");
}

TEST(CampaignReplay, ReplayIsBitIdenticalWithCwgAnalyzer)
{
    CampaignSpec spec = ckCampaignSpec(12);
    spec.verifyCwg = true;
    expectReplayBitIdentical(spec, "cwg");
}

TEST(CampaignReplay, ReplayIsBitIdenticalInRecoveryMode)
{
    CampaignSpec spec = ckCampaignSpec(13);
    spec.cfg.recoveryMode = true;
    expectReplayBitIdentical(spec, "recovery");
}

TEST(CheckpointCampaign, StateDigestsArePinned)
{
    // The replay tests compare a run with itself, so a hashing drift
    // that hits both sides alike would pass them. These golden digests
    // pin the field walk: each campaign's final state, and a harness
    // stopped with messages in flight.
    struct Row
    {
        const char *tag;
        CampaignSpec spec;
        std::uint64_t final;
    };
    CampaignSpec cwg = ckCampaignSpec(12);
    cwg.verifyCwg = true;
    CampaignSpec recovery = ckCampaignSpec(13);
    recovery.cfg.recoveryMode = true;
    const Row rows[] = {
        {"base", ckCampaignSpec(11), 0x8b14d3fd4d0fbb97ull},
        {"cwg", cwg, 0xf977e35a3eba6857ull},
        {"recovery", recovery, 0xe19db36705792425ull},
    };
    for (const Row &row : rows) {
        CampaignDigests d;
        runCampaign(row.spec, &d);
        EXPECT_EQ(d.state, row.final)
            << row.tag << std::hex << " 0x" << d.state;
    }

    Harness h(harnessConfig());
    h.run(200);
    ASSERT_GT(h.net.activeMessages(), 0u);
    EXPECT_EQ(h.digest(), 0x9a560f233efca2ccull)
        << std::hex << " 0x" << h.digest();
}

TEST(CampaignReplay, HashedRunMatchesUnhashedRun)
{
    // The digest tee and the final hash must not perturb the run in
    // any observable way.
    const CampaignSpec spec = ckCampaignSpec(14);
    const CampaignResult plain = runCampaign(spec);
    CampaignDigests d;
    const CampaignResult hashed = runCampaign(spec, &d);
    EXPECT_EQ(campaignJson(plain), campaignJson(hashed));
    EXPECT_EQ(plain.cycles, hashed.cycles);
    EXPECT_EQ(plain.passed, hashed.passed);
    EXPECT_GT(d.records, 0u);
}

} // namespace
} // namespace tpnet
