// Churn / fault-injection scenarios (DESIGN.md "Churn model").
//
// Each scenario drives a fixed-seed run through a ChurnPlan and checks two
// things: (1) the protocol-level response — bid-deadline exclusion, the
// processing watchdog, NCP-NFE reallocation of a dead processor's remaining
// blocks, pro-rata settlement, or termination when the load origin dies —
// and (2) the pinned SHA-256 digest of every artifact (outcome, ledger,
// JSONL, trace, catapult, metrics; see tests/support/run_capture.hpp).
#include <gtest/gtest.h>

#include <string>

#include "agents/zoo.hpp"
#include "dlt/finish_time.hpp"
#include "support/run_capture.hpp"

namespace dlsbl::protocol {
namespace {

using test_support::capture;
using test_support::Golden;
using test_support::RunCapture;

ProtocolConfig base_config(dlt::NetworkKind kind = dlt::NetworkKind::kNcpFE) {
    ProtocolConfig config;
    config.kind = kind;
    config.z = 0.25;
    config.true_w = {1.0, 2.0, 1.5, 0.8};
    config.block_count = 240;
    config.seed = 42;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    config.strategies.assign(config.true_w.size(), agents::truthful());
    return config;
}

// clang-format off
constexpr Golden kGolden[] = {
    {"crash-before-bid",
     {"511369c2a607b4011e6d98c6668bb3e629336c0d83ed58569df83f06f11d0cd2",
      "24b5c8f980c3f4edb59ccffe42d5b02a5d0bacbf65fd73bbf702d913d03467da",
      "51cda5fa7cc9061549ed2a002ff87758c4345b29d940587306fd75f1b141e6c5",
      "80e461e94714b77cfd9765f4e7e7148f9f5a8a2465adfc8b6ee5e4d7c41589bb",
      "fc43c6901bdab249d7d4aa28d3e50a316c8cb738d26c137b6896d6ff476d7106",
      "0cddac2402f2960416a0f9bceec3fbff58e28cc5dd7c5c9ec1fe2f3d2dd77441"}},
    {"crash-mid-transfer",
     {"b08320a2b57ac77229289ac5f08667c9c58e08124079e5076db5e75e92b5dcf4",
      "cb2d10204376c08ca39f86767b355e9f49995520f73aed4fd35432b0d16456af",
      "93dd7419f54d72f8bbb5f44399f8a8c6a3c9fa9722a71dd39eeab3e49005bf2f",
      "bc746aa1abfc5576dc9bed23fa9b30f41ca9557f3f1521f29f853628932da234",
      "ac83c61ac8ea76d147799dcdbb54b3c18521005b91758a9702dbc84c178387b7",
      "0f68a7178c2b1cf3fbd957600c1ae5b58320de28d932bda6c60b3581aa19c04c"}},
    {"crash-mid-compute",
     {"d764e34bb78882f0126a989468f47c56af7308f8fdc6cf4e6d3c3500f7559602",
      "b346598592bbd636a7137c372cdc8c5cff95e384a63203829ed259f740b88928",
      "32b26a73aa61c21565771f34d9c3bdc2ba846b6c0b6898d7281385906252751d",
      "54cac77b4856f604fd4cb10b9afba9a4d17fb7acddb4ba6806543e6fa1455896",
      "0a4f6544f042be49fe4edd11d0b801209480c0cfa1cf87bf91f76e2697b53e31",
      "89a6be4638b1d57f42bf29739630f02293868945c95dfdc79029f273af6207bf"}},
    {"silent-after-compute",
     {"3cf48d19710b99aa4bb1d914232ee34cf3d6fdeca616cd8caf1a93d67982a52c",
      "4530c171f0b37dd1e0e2f2dad5dba13b321fcfba76f51cc47d4558bc70f81903",
      "08392cf9efa00ce4879ba1a2eca9f230b2bde568268a022d8819b0eb7d6c9d44",
      "7c5553be53d702ba2653cff62ba9e867acc949ac6a666e35a5e089ac6178503d",
      "e05941b54c6c95e454e9a065a3ed539168dd4c942db3f61e6a41a3258c0cce96",
      "7bd67be49a94b3426e71477528e37559d9fd486732d9de30250520ac8400d33b"}},
    {"stale-rejoin",
     {"2813efbe2f2570272b7ac8de17a301ae9245c143c4045043d4cb4db024dacdd9",
      "24b5c8f980c3f4edb59ccffe42d5b02a5d0bacbf65fd73bbf702d913d03467da",
      "a2c5510b859ab9ba231660859c76995aaee372d21e503e2a1e293e20c2a565ce",
      "a710981107decc9e64260171d659d36272b34b0a68f020ad380f8f5ff5bb0185",
      "d3795729e29af8016c0b1843ab934b7f7b36a796764ec8be030d2cf39eb58c26",
      "a475ffe83f5d51ad0e25cf8866bacfa57c89cc7447f4d95ba7db21f9a5486634"}},
    {"lo-crash",
     {"f4558dd1ef8660764f1886b0dd41fb6e2c59fb284d285b41208b89e161cfffda",
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
      "b80a8903a92304997e24e7a36a2602aa6847329708babe521a76abbe4671d156",
      "da313241b454e9816705eb648152bfaf730c61017c5d42f62cb2fc993ca49cdc",
      "15662cd17f0fc18f9bc9787449acc98e96776e79b37b0a09160f9386f897224b",
      "dd4623312c8db6be8d150503443e5c6f81284f6b0bd6e5dbbe8813c819a6fe6f"}},
    {"delay-window",
     {"6ce72f84f4474582b1b499e2345cdeb228c661e03b06b5542b8abbb47a6e4da9",
      "4530c171f0b37dd1e0e2f2dad5dba13b321fcfba76f51cc47d4558bc70f81903",
      "9967ad8e56175919feaf2a91cdc480fc2bef097a6b5bca269d132e9c3a2353ff",
      "298b1068dcc7dcbd226962f0d894ecb256afdd86eba2618052bf53e4c62aa3b3",
      "4468358909453c5190d9d1d2ff11c6ab8a052a1ecce420ea60fcfa7ac71b367c",
      "106048f185c24f774dd6c793d647bfa81d76e7d6f1d845597d0bcc49e31667b0"}},
    {"churn+payment-cheater",
     {"9b5229cd21720c5d4b8e190014b1d6134638734c9c30ef381b3c2b1f9e953c9b",
      "635fa40077ab74c91b3c3fd81d3c6fe27e0a57e369970d8a5343be17fadb8dab",
      "a23505f5eac976e53d541a331bab951d509bdec72e074bb437317a21851592d2",
      "112e268e72d4cb44650305eca546db7e68145d59953ceb96ae069c3060ba2b01",
      "d2a78acbeb0f38ba404bff90d51f09865d11948e5032ad18e88983822805e77f",
      "4104effe8dd52391649f79605c9f9050be82174751023558393fcc8154d8b83f"}},
    {"nfe-crash-before-bid",
     {"bf7461d17ebd0fd2fb1bc91a2b7f1fb3d2549f53d3c7de30238b14ff90f3258d",
      "e71426b12611ff3eec5228b1576a77a418d5119992bf0597376e4c3c568a4562",
      "a5c9f1d5d44d7af017143c64cef3c7f1dbb8eddd8f6c9cd6d29d87f44089bb12",
      "0d9d316e26c2692e32c0e3afd22f3f7f984bac7141d17a333a351856dc9333bb",
      "542e1879a8fcd9c6629c429d3316817309ac3070e7cc6f7af225052f54fba49a",
      "4d5de84a23c35c23c240d540d46541e97586b691289bb21f94769339a7bdd7a7"}},
    {"m=40 crash-before-bid",
     {"a9530b5c4cdacf6199864ae981157bb6022b1d4eceb583650d33f37cbaaf0bca",
      "9ac609f2d62f446a75aea842c99dc0cc0e5575f95da35deabb560a6eed9ca78f",
      "65e717055ba1df41f74868aed1e6285d31521905251d9dd9bd608319de405e35",
      "67b5f9125f11b93efd4e267a049ff423e2141429e334cca3131ad4e1ca8c8715",
      "9e4b0ceecdd832d1306ce7680d016a4f06e0bd21ba4a619b7cccda4abf3ebdd6",
      "c6dca183ce0f8e5ee3de29b52fa3cbbceae454c425edcba84657e458556b4f78"}},
    {"m=12 crash-before-bid P2 and P10",
     {"9f2fee2e2ad14ae5f73030195d1c20057b8e8eaad232ab7f24613b87c9b9c59f",
      "b9697950f83206ba4604725f6bc40fb6bbde8922f05a37aa8f78839b8068e797",
      "0ae9f50880e7dd3066a8757921fc8f74a1c32f976a76797c1d3b7c6791feee28",
      "0c78069b9c821e260907004f7bcb435cec31ba2f2036294e3848e7849de9f50f",
      "f60e54254ba21fc8702846f6e3363eb20325e1a64edd65b3794293302d6c0bd5",
      "947b6cc9d0ebff60eb46fa794cdf32f87a2a2b53e423eee69ea7cda140f952be"}},
    {"m=64 nfe-crash-mid-run",
     {"d80178a1f4ce744163154d92398fd52ffa5a3f4efacdcbb54c19355db48cfaf8",
      "873f0c1acc80fcef85d2b1914e45508781d7452135913f0228f8071fec7f189b",
      "81c59c4614a04ab7f068fe2ae85f1f9339a7b737f41bdea4f6da80c8b8a0bfb8",
      "a1a6f723f700660652fc87a1c5c8c53c30bddfb76cb3574d6e3da0c2c1f391d1",
      "a618f39323d24003f5a13bff54b339612fcd933b403ea6a87d915c062dedfdd9",
      "2423e4da140721b5c934860598519df22043d261b9d7e048f527e199b0c2e1a3"}},
};
// clang-format on

// Runs the config, checks every artifact against its pinned digest, and
// returns the capture for scenario-level assertions.
RunCapture expect_golden(const ProtocolConfig& config, const std::string& label) {
    RunCapture run = capture(config);
    test_support::expect_golden(run, label, kGolden);
    return run;
}

// ---- crash before bidding: bid-deadline exclusion ---------------------------

TEST(ChurnScenarios, CrashBeforeBidExcludesAndRunSettles) {
    auto config = base_config();
    config.churn_plan.events = {{"P3", 0.0, ChurnEventKind::kCrash}};
    const auto run = expect_golden(config, "crash-before-bid");
    const auto& outcome = run.result;

    ASSERT_EQ(outcome.churn_excluded, std::vector<std::string>{"P3"});
    EXPECT_TRUE(outcome.processor("P3").excluded);
    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_EQ(outcome.ended_in, Phase::kDone);
    // Exclusion is not an offense: no fines anywhere, and the excluded
    // processor simply earns nothing.
    EXPECT_EQ(outcome.fined_count(), 0u);
    EXPECT_EQ(outcome.processor("P3").payment, 0.0);
    EXPECT_EQ(outcome.processor("P3").blocks_assigned, 0u);
    // The survivors split the whole load and all get paid.
    std::size_t assigned = 0;
    for (const auto& p : outcome.processors) assigned += p.blocks_assigned;
    EXPECT_EQ(assigned, config.block_count);
    for (const auto& p : outcome.processors) {
        if (p.name == "P3") continue;
        EXPECT_GT(p.payment, 0.0) << p.name;
    }
    EXPECT_GT(outcome.user_paid, 0.0);
    EXPECT_NE(run.run_metrics.find("dlsbl_churn_exclusions_total"), std::string::npos);
}

// ---- crash mid-transfer: the load never arrives; watchdog reallocates -------

TEST(ChurnScenarios, CrashMidTransferTriggersWatchdogReallocation) {
    auto config = base_config();
    // P2 bids at t=0 (healthy), then dies before the LO's shipment reaches
    // it. The referee's processing watchdog notices the unstarted assignee
    // and reallocates every one of its blocks.
    config.churn_plan.events = {{"P2", 0.02, ChurnEventKind::kCrash}};
    config.churn_plan.policy.processing_grace = 0.8;
    const auto run = expect_golden(config, "crash-mid-transfer");
    const auto& outcome = run.result;

    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_TRUE(outcome.churn_excluded.empty());
    EXPECT_EQ(outcome.churn_dead, "P2");
    const auto& dead = outcome.processor("P2");
    EXPECT_FALSE(dead.commenced_work);
    EXPECT_EQ(outcome.churn_realloc_blocks, dead.blocks_assigned);
    EXPECT_GT(outcome.churn_realloc_blocks, 0u);
    // Everything granted away was really executed by a survivor.
    std::size_t extras = 0;
    for (const auto& p : outcome.processors) extras += p.blocks_extra;
    EXPECT_EQ(extras, outcome.churn_realloc_blocks);
    // The dead processor proved no work, so it is paid nothing — but it is
    // not fined either (death is not an offense).
    EXPECT_EQ(dead.payment, 0.0);
    EXPECT_EQ(outcome.fined_count(), 0u);
    EXPECT_NE(run.run_metrics.find("dlsbl_churn_reallocations_total"), std::string::npos);
}

// ---- crash mid-compute: meter lost; remaining blocks reallocated ------------

TEST(ChurnScenarios, CrashMidComputeReallocatesRemainingBlocks) {
    auto config = base_config();
    config.churn_plan.events = {{"P4", 0.35, ChurnEventKind::kCrash}};
    const auto run = expect_golden(config, "crash-mid-compute");
    const auto& outcome = run.result;

    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_EQ(outcome.churn_dead, "P4");
    const auto& dead = outcome.processor("P4");
    // It had commenced, so only the *remaining* blocks move.
    EXPECT_TRUE(dead.commenced_work);
    EXPECT_GT(outcome.churn_realloc_blocks, 0u);
    EXPECT_LT(outcome.churn_realloc_blocks, dead.blocks_assigned);
    std::size_t extras = 0;
    for (const auto& p : outcome.processors) extras += p.blocks_extra;
    EXPECT_EQ(extras, outcome.churn_realloc_blocks);
    // Pro-rata settlement: the dead processor keeps pay for the meter-proved
    // prefix, strictly less than its full-assignment pay would have been.
    EXPECT_GT(dead.payment, 0.0);
    const auto honest = capture(base_config()).result;
    EXPECT_LT(dead.payment, honest.processor("P4").payment);
    EXPECT_EQ(outcome.fined_count(), 0u);
}

// ---- crash after compute: payment never submitted; deadline settlement ------

TEST(ChurnScenarios, SilentAfterComputeStillSettlesAtDeadline) {
    auto config = base_config();
    // P3 computes its full share, then a loss window swallows the meter
    // broadcast and its retransmit. The referee settles canonically at the
    // payment deadline; full work means full pay, and silence is no offense.
    config.churn_plan.losses = {{"P3", 0.4, 5.0}};
    const auto run = expect_golden(config, "silent-after-compute");
    const auto& outcome = run.result;

    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_TRUE(outcome.churn_excluded.empty());
    EXPECT_TRUE(outcome.churn_dead.empty());
    EXPECT_TRUE(outcome.processor("P3").commenced_work);
    EXPECT_GT(outcome.processor("P3").payment, 0.0);
    EXPECT_EQ(outcome.fined_count(), 0u);
    EXPECT_GT(outcome.user_paid, 0.0);
    // Identical bids and block division -> identical settled payments to the
    // static run, just reached via the deadline path.
    const auto honest = capture(base_config()).result;
    for (const auto& p : outcome.processors) {
        EXPECT_DOUBLE_EQ(p.payment, honest.processor(p.name).payment) << p.name;
    }
}

// ---- stale rejoin: replayed signed bid is benign ----------------------------

TEST(ChurnScenarios, StaleRejoinReplayIsBenign) {
    auto config = base_config();
    config.churn_plan.events = {{"P3", 0.0, ChurnEventKind::kCrash},
                                {"P3", 0.9, ChurnEventKind::kRestartStale}};
    const auto run = expect_golden(config, "stale-rejoin");
    const auto& outcome = run.result;

    // The rejoin replays the *identical* signed bid bytes: peers dedup it,
    // the referee's first-bid-wins recorder ignores it, and crucially nobody
    // mistakes the replay for offense (i) double-bidding.
    EXPECT_FALSE(outcome.terminated_early);
    ASSERT_EQ(outcome.churn_excluded, std::vector<std::string>{"P3"});
    EXPECT_EQ(outcome.fined_count(), 0u);
    EXPECT_EQ(outcome.processor("P3").payment, 0.0);
    EXPECT_GT(outcome.user_paid, 0.0);
}

// ---- load origin dies: no reallocation possible; clean termination ----------

TEST(ChurnScenarios, LoadOriginCrashTerminatesWithoutFines) {
    auto config = base_config();  // NCP-FE: P1 is the load origin
    config.churn_plan.events = {{"P1", 0.01, ChurnEventKind::kCrash}};
    config.churn_plan.policy.processing_grace = 0.8;
    const auto run = expect_golden(config, "lo-crash");
    const auto& outcome = run.result;

    EXPECT_TRUE(outcome.terminated_early);
    EXPECT_NE(outcome.termination_reason.find("churn"), std::string::npos)
        << outcome.termination_reason;
    // Death is not an offense: termination carries no fines and no payouts.
    EXPECT_EQ(outcome.fined_count(), 0u);
    EXPECT_EQ(outcome.user_paid, 0.0);
    EXPECT_NE(run.run_metrics.find("dlsbl_churn_terminations_total"), std::string::npos);
}

// ---- delay window: late delivery, same economics ----------------------------

TEST(ChurnScenarios, DelayWindowOnlyShiftsTimingNotMoney) {
    auto config = base_config();
    config.churn_plan.delays = {{"P2", 0.0, 0.1, 0.03}};
    const auto run = expect_golden(config, "delay-window");
    const auto& outcome = run.result;

    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_TRUE(outcome.churn_excluded.empty());
    EXPECT_TRUE(outcome.churn_dead.empty());
    EXPECT_EQ(outcome.fined_count(), 0u);
    const auto honest = capture(base_config()).result;
    for (const auto& p : outcome.processors) {
        EXPECT_DOUBLE_EQ(p.payment, honest.processor(p.name).payment) << p.name;
        EXPECT_EQ(p.blocks_assigned, honest.processor(p.name).blocks_assigned) << p.name;
    }
    EXPECT_NE(run.run_metrics.find("dlsbl_churn_messages_total"), std::string::npos);
}

// ---- churn + deviant: offenses still caught under failures ------------------

TEST(ChurnScenarios, PaymentCheaterStillFinedUnderChurn) {
    auto config = base_config();
    config.churn_plan.events = {{"P3", 0.0, ChurnEventKind::kCrash}};
    config.strategies[1] = agents::payment_cheater();
    const auto run = expect_golden(config, "churn+payment-cheater");
    const auto& outcome = run.result;

    EXPECT_TRUE(outcome.processor("P2").fined);
    EXPECT_EQ(outcome.fined_count(), 1u);
    EXPECT_FALSE(outcome.terminated_early);
}

// ---- NCP-NFE flavor: exclusion works when the LO is last --------------------

TEST(ChurnScenarios, NfeCrashBeforeBidExcludes) {
    auto config = base_config(dlt::NetworkKind::kNcpNFE);
    config.churn_plan.events = {{"P2", 0.0, ChurnEventKind::kCrash}};
    const auto run = expect_golden(config, "nfe-crash-before-bid");
    const auto& outcome = run.result;

    ASSERT_EQ(outcome.churn_excluded, std::vector<std::string>{"P2"});
    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_EQ(outcome.fined_count(), 0u);
    EXPECT_GT(outcome.user_paid, 0.0);
}

// ---- m = 40: exclusion shrinks a round larger than the verify queue ---------

TEST(ChurnScenarios, CrashBeforeBidExcludesAtFortyProcessors) {
    auto config = base_config();
    config.true_w.clear();
    for (std::size_t i = 0; i < 40; ++i) {
        config.true_w.push_back(0.8 + 0.05 * static_cast<double>((i * 13) % 40));
    }
    config.z = 0.02;
    config.block_count = 4000;
    config.strategies.assign(config.true_w.size(), agents::truthful());
    config.churn_plan.events = {{"P23", 0.0, ChurnEventKind::kCrash}};
    const auto run = expect_golden(config, "m=40 crash-before-bid");
    const auto& outcome = run.result;

    ASSERT_EQ(outcome.churn_excluded, std::vector<std::string>{"P23"});
    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_EQ(outcome.ended_in, Phase::kDone);
    EXPECT_EQ(outcome.fined_count(), 0u);
    EXPECT_EQ(outcome.processor("P23").payment, 0.0);
    std::size_t assigned = 0;
    for (const auto& p : outcome.processors) assigned += p.blocks_assigned;
    EXPECT_EQ(assigned, config.block_count);
    EXPECT_GT(outcome.user_paid, 0.0);
}

// ---- m = 12: the excluded set reads in name order ----------------------------

TEST(ChurnScenarios, CrashBeforeBidExcludesInNameOrderAtTwelveProcessors) {
    auto config = base_config();
    config.true_w.clear();
    for (std::size_t i = 0; i < 12; ++i) {
        config.true_w.push_back(0.8 + 0.1 * static_cast<double>((i * 5) % 12));
    }
    config.z = 0.1;
    config.block_count = 1200;
    config.strategies.assign(config.true_w.size(), agents::truthful());
    config.churn_plan.events = {{"P2", 0.0, ChurnEventKind::kCrash},
                                {"P10", 0.0, ChurnEventKind::kCrash}};
    const auto run = expect_golden(config, "m=12 crash-before-bid P2 and P10");
    const auto& outcome = run.result;

    // P10 sorts before P2: the outcome lists exclusions by name.
    ASSERT_EQ(outcome.churn_excluded, (std::vector<std::string>{"P10", "P2"}));
    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_EQ(outcome.fined_count(), 0u);
    EXPECT_EQ(outcome.processor("P2").payment, 0.0);
    EXPECT_EQ(outcome.processor("P10").payment, 0.0);
    std::size_t assigned = 0;
    for (const auto& p : outcome.processors) assigned += p.blocks_assigned;
    EXPECT_EQ(assigned, config.block_count);
}

// ---- m = 64: the perfbench adversarial_zoo crash-mid-run shape --------------

TEST(ChurnScenarios, NfeCrashMidRunReallocatesAtSixtyFourProcessors) {
    auto config = base_config(dlt::NetworkKind::kNcpNFE);
    config.true_w.clear();
    for (std::size_t i = 0; i < 64; ++i) {
        config.true_w.push_back(1.0 + static_cast<double>((i * 37) % 64) / 64.0);
    }
    config.z = 0.005;
    config.block_count = 2048;
    config.strategies.assign(config.true_w.size(), agents::truthful());
    // Times in makespans, as perfbench scales them: the victim dies at 0.6 of
    // the optimal makespan, mid-run, and its remaining blocks move.
    const double t = dlt::optimal_makespan({config.kind, config.z, config.true_w});
    auto& policy = config.churn_plan.policy;
    policy.bid_timeout *= t / 0.5;
    policy.detection_timeout *= t / 0.5;
    policy.payment_timeout *= t / 0.5;
    policy.processing_grace = 1.6 * t;
    config.churn_plan.events = {{"P23", 0.6 * t, ChurnEventKind::kCrash}};
    const auto run = expect_golden(config, "m=64 nfe-crash-mid-run");
    const auto& outcome = run.result;

    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_EQ(outcome.churn_dead, "P23");
    EXPECT_TRUE(outcome.churn_excluded.empty());
    EXPECT_GT(outcome.churn_realloc_blocks, 0u);
    EXPECT_EQ(outcome.fined_count(), 0u);
    std::size_t extras = 0;
    for (const auto& p : outcome.processors) extras += p.blocks_extra;
    EXPECT_EQ(extras, outcome.churn_realloc_blocks);
}

}  // namespace
}  // namespace dlsbl::protocol
