// Golden-digest regression oracle for full protocol runs.
//
// A fixed scenario zoo — honest NCP-FE and NCP-NFE runs, the
// bandwidth-charged control plane, every worker deviant on both network
// kinds, every load-origin deviant, and three seeds — is run once each, and
// the SHA-256 of each artifact (outcome, fines ledger, JSONL event log at
// debug level, rendered trace, catapult export, per-run metrics) must equal
// the digest pinned below. A deliberate behaviour change fails here with the
// new digests printed; re-pin them by hand in the same change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "agents/zoo.hpp"
#include "support/run_capture.hpp"

namespace dlsbl::protocol {
namespace {

using test_support::Golden;

// clang-format off
constexpr Golden kGolden[] = {
    {"honest BUS-LINEAR-NCP-FE",
     {"811fc38ee93a696d32104166e71554547c4b09fb69de45022c9711956e05e5a1",
      "44816b2997143c10473a04bc8cb1c8159ff0e31ffb04c986f6e304230426a734",
      "dff097aa16e88241f2f43eb3aa21845a3b6c65d6d6d339d741cdb8c4f93397a2",
      "8b5267d536b3d95ee6a11bd231029f8bf43fb55694b68fe655ee4b779c0ade4a",
      "4bb96f69232251ed7ee1fe86dcb54530f0220f83d32bb081b1ab67d9b5d89042",
      "4c751a4e5effb51f3188acd68713890e273fed1e54ad4c181ac30f8235f4b359"}},
    {"honest BUS-LINEAR-NCP-NFE",
     {"02a7e1bea4392f7f93d6cc71ff6dea2ef211acd7a77d4ee1eef771346a80168c",
      "48da1fdcefd6eae3ba917332d5fde2ced7ca97a10cdb1ed456e714862ba3e99e",
      "17b19fe1068d1e3b0f126ab739eb5e318cf5a2fa2f1d615c83dd5a317cb80c09",
      "4b5e39a7b0980747184544de2c5966d7e28e03e7de52d701a18ccb0a0146cd48",
      "a2c4b93188a267165e1ee337c61615d362e61ad26042ba0356f8b3a795a42d77",
      "f13067c74ed64c09bdb7ab4f986e6d7c696ebfb2b60020f9fe2084b1ac32b2e6"}},
    {"bandwidth-charged",
     {"a5a868bb34640113110e6d425b319019733170ba5a37a06e7b4392a1abf0defb",
      "44816b2997143c10473a04bc8cb1c8159ff0e31ffb04c986f6e304230426a734",
      "909a2a552dc43311c7946792a2379cd2f0e924e581ceb5770f3832e11bd176ba",
      "c7be9438715a91454b0ac4a7056338a63a90343c9b5d45c1902d8beb1434cb88",
      "ff2ba85ece2b8a8a1b4921a397c27edc4e0958ea0b53a055476d62c7e5c7e266",
      "34e7d6c969b1de4c1da95bb9f342cd6f9d498be6d15c100be101fb15767c4c3c"}},
    {"BUS-LINEAR-NCP-FE worker inconsistent_bidder",
     {"a2a4807eeb1e2fee8d5ccf8440ffdccb136ca211b35dff6935a6d2bbc71b3c7a",
      "66c85741bad2537b055dd10e67cc83fb71b6fd639a072d8d493e15c6d416b1e8",
      "be249a063177c55fa4715c50e228f2d1a487ca41abcf3afb6b71fabf5883daa3",
      "1e681da234935fefe1e33ebd6295e2e7c94dab21005eaa8329eb9a23ad151870",
      "cdc791cf2b8789f5d895c5c0aab99e8b0704066b1f78dbfa79e397e51f018312",
      "63e097d7703220cb697bfdcb4f8c3bb364b6ce5fd105e00a846f60922ab3a462"}},
    {"BUS-LINEAR-NCP-FE worker payment_cheater",
     {"e4576a74dc3bb5329e212844f8751816979c7d42e65e48901ef3398315521794",
      "7a890f0e51d7c1ce37a8a83f70caacf05d0c12efc2699f1403db29d1b7499b36",
      "8c00f9cda93c9efe7b6ea4ea8c371e402f82cd65ee1c7919ac05ca28c36263cc",
      "96a2f087df0f17ab94fe060e3090c44b03141f2a5838dbb809c1e7079f876983",
      "15137d2b3859d55bfc85571279ce06a30f5a10d9ad310c755f0474c6120b997b",
      "f50d6be71c6bd75004d77a59a0cb184ad48e139768ce41cf2ceaa12cdced2649"}},
    {"BUS-LINEAR-NCP-FE worker contradictory_payer",
     {"da49d8717df60908e18e3fa1f3e89dbd0159dcc086c247cb43b038f2ba3b321b",
      "7a890f0e51d7c1ce37a8a83f70caacf05d0c12efc2699f1403db29d1b7499b36",
      "85d833e3e9004ba0c5c9daf87b4575f129aeec1614e3036e0266ae1957a26bbe",
      "effddbb27759a07a999a45cbf90eb42bbb7987bbf7568b026fe86debc615f4d9",
      "9a069647836dfc4a3144459169c4c850e03a8bb03865ac992ddc5020ba707c11",
      "dfe716c0b33ed0b66f36f21eead7617eb3efe81ae57a3a4da38945cf0303a90f"}},
    {"BUS-LINEAR-NCP-FE worker false_accuser",
     {"17055f94c064138a0e4b996e094d17ea93c326047779f561b2026ccf3a4e71e0",
      "97cc734c3be7d04c47ccd84218d8fafb8f52339bc0560db360e47d1c1f954360",
      "6b4525f5c6ca7654c0614f787ffa7bb0a0a459f3f33dfc78fbd0fbcef737550d",
      "a9fbda0e6a6db96d5fd368e696ec860f3b4bf3fed2938ccbed5b91542dc59c77",
      "41fadb886d06f09b6babc4f453789bccd9ce999aa56697c44b508fe34bfe941c",
      "97f8ec71a46ac640eeae8c7ca0dece4beefc9818bccadb319214f6023a321925"}},
    {"BUS-LINEAR-NCP-FE worker false_short_claimer",
     {"55cd7c1c3ae056db0ac3a8bd05f0bfba5bafbe074a06b42e27602eef13fe3ee2",
      "4db0bd6320968e4e7b228a7719d0f511a10655fdc9b7e792dbb590cdc7ad311e",
      "a394c9f6e5e771aff8a308d9a5c53249463fbdb8e780089f3da856e4f26bb3f9",
      "d2481984a9f0e55c1e64cc6312a15bcbe938d862868bd28b3980cd448c6cc087",
      "85c861028b81111de722ee5e3d05c7df5323ea9df12bf38efb1602016349f536",
      "f616c2ecfd30ab42a22dcf94e913e1dfdabe7effc9621bbb4abf9756aa2df27e"}},
    {"BUS-LINEAR-NCP-FE worker bid_vector_tamperer",
     {"6cfbffaab46583d3aa93a8e3f610077c2adf02f3cc42d8057837fed5426c3f69",
      "d78eea74950579d969a612b0f66fce340a8ba32de5133bcf3cc38e2eaf34ca24",
      "40ea07b5d4fcc2f8ac493653732e80cd39527a2592a8d32d52801d324def45cb",
      "6e84473b90368231166a6dada0d77db6f7cbaf1f3fa903e6b275c5fbbc61650a",
      "359b3bdc76c00dd70e0d313caf03abd724b1a3d8a48e2b6d4cdefb8a156e7062",
      "df67c431923986095050a9fadd86a6de01bca6ca8dd29e42baf6475c9bb352fa"}},
    {"BUS-LINEAR-NCP-NFE worker inconsistent_bidder",
     {"04a50a23dd8e7de638fd11ba1ff3b28090f1986098d9de1b405bbf81d59188d5",
      "2d779f806d4024dc448f5d6a50b76e1efb2406bb989334a6ed5c95946d1bcdc6",
      "4b76a0542a700e6f82fbb8b312265dcbdc350edf503800d1af0429072da66106",
      "a3cf6925bd6a5fdba5fdc88238c119484ce9522ac669be222133f5378680eecf",
      "c3d3cc4aef4ccd2ca48a285d77cb2459e006dfae4d378ffb4145ff2c8714aa4f",
      "71416fa55b4599df0e0073ff9132ca0c3580ac6e5d401939a3a6f573146df213"}},
    {"BUS-LINEAR-NCP-NFE worker payment_cheater",
     {"8aeb8279f80a2919ef522897126105c81276ea355bdf7ba2e0e02d9629d478c1",
      "56a299d7aeff157fb996d7d12730a992972d444890e2022be134287c68a1a39c",
      "95db5b2936eb99cbd353b34dfb2ffdc949d07792f99f4bf5bf8c4b2fd480fe79",
      "7526c5eef59e77e27dca27e612408ad81fe6c0e1af0beb083d8bc077a709f917",
      "fdc814c878e97e957b8a7b40c2be5c1377925ca680568f8c8cba995f55533e41",
      "d26fd57e7316d14cc658708b3d31799195b22d11954fb36dd9c552e08b72fd72"}},
    {"BUS-LINEAR-NCP-NFE worker contradictory_payer",
     {"596af226167e4819a51b4bc4c037f3ce9788727c1530330178e76ea1c3050994",
      "56a299d7aeff157fb996d7d12730a992972d444890e2022be134287c68a1a39c",
      "0426caf1a49d25b5409721540521aa4f81ef34cf9bd9022be9ccb95fd56d34ee",
      "7a0218a736dc4f3bf53d4eb7e72584a5fb9894a3432006b85c4d01249ceacc4d",
      "80c6dd48ad4e7521cecacc19067c6b9a03dcc14df3c3c323fe587b7c56b221a7",
      "067c2e7fe8420fb487f09533dd1dbbbfb40e283365722629c54df5d837179fcf"}},
    {"BUS-LINEAR-NCP-NFE worker false_accuser",
     {"52a88b386d4ab314d711cc795c2c22cef97de0083259985fb076d54025b2e26c",
      "32ac53ec08b3cbad01f5f0ca3df9bf2f8fbd8f2b1e16de6ca7e6f13b55791d8b",
      "8c7bfda9efb25015e3f582bae61f853233292e5981672e96b340044d1d18e6e9",
      "b149c91bb4a0f72a19a47050821860bda31a471894725df57910c502fb17c44b",
      "d1d95e820f1f672d24ea18f9d22d799d412e0d15d15047261be391033c84aeb4",
      "c49c5bb23019660352e24a1500ad73f62b613fb32624e62f8dfc6bf0085accda"}},
    {"BUS-LINEAR-NCP-NFE worker false_short_claimer",
     {"5d8c3db12833c1a798b5672e46072be3a8dd6a7d3078202df52dc32ff3ca5d29",
      "7ee1a8555049d1121e58b72d3bba85516277c3cf97fc6a10bf33393f58b9347a",
      "cde7ba7de6046b5651e184b34df665dd4a2ecf04e4aeed103a110e99f95973bd",
      "85465fa5c302b9022b4929271d773dac951cf7bedc9e652f0e8526d99c7f10e6",
      "66aea9fcd484034329c7512c3141fb6e601eea3d25d2f82149cfd791ea48d80d",
      "d5c5c65786042c25e8b4f12118e8c88a48e10a766e0cc9c5108df49d2f9f0c46"}},
    {"BUS-LINEAR-NCP-NFE worker bid_vector_tamperer",
     {"6c556efdae4b138f87aa36d1f34b4e888421fb069c41927df1248fece3938ea9",
      "0adf0626665717579cd67ac853c0d0b961ea6f881c0f955af817d63721dda061",
      "897b6fc538637e4478ae3960da2b6801d3e328b529bac5c0f185288de3005bbc",
      "da730c66e848deb379a3121fec7e1ef045bc15dd3436d7b6c7279a5856e3a432",
      "cb5c4ec4adc8272543df10326a484d973815087033757918545074322e37129f",
      "18c60ebcb4d63f5c16e80331ef1dac7844a2cdecaece3c5445363df33e6d87d2"}},
    {"lo inconsistent_bidder",
     {"916a087261de821895bc0f7a888d460cb2bd16044e15b4042dc3eb2841a93479",
      "e489871bb1c468d748501a5339dd3600c14867600613faf60f273fbd012fce89",
      "c29e3538749141dfb1fe1919e59ff143fca62d15a98b84fcf5ef0e22133a07f1",
      "45cb951e24c7cbeb570a22ad636867944814b2494dacb34ff039fc56c0a621e8",
      "48bce6572cbb77db37987116f2d3058052b2c7dfbdcc1e10774292c46589a7f4",
      "416f1434da8479ab42c37b02edbbc992cda57769be0023d4fa2610c4fa9cda39"}},
    {"lo short_shipping_lo",
     {"a929490a16bb7567c2b1e67f689c0ce26ad20791d42bc91d2d76f6ebc0df1cfe",
      "a7bc56006b2cb4fe0a06fa1c4f1fcfdd4f990974f41176ef93690669448c87b4",
      "2bf0fe9dac58e216739c0ddf05db62985d1229217b5d5a1bc7b57e6c2945d995",
      "c4b1322c8efda89924f5ee7bfb3f9e8a7337ccdfc05d99f423bdc9ec02f6b3bb",
      "a2eceed366607a2dd9adfc09bc487250c45504b90625c9d25cf3fda1f46f883a",
      "e906b46e14ebb6735160c6e48b4ba99a6ed2f52b949c19693bc3a295cfae87ba"}},
    {"lo over_shipping_lo",
     {"2623336e80dc2cc1e52ba58ac41e7f35ba81ea957fb207a39849134a78ac8d5d",
      "b74e3bce3e9bcc48ba5d9569e69c3a528057789b5cad2dda3fe4aa9937b14a65",
      "67a3f234fe67d84922ec6a3b53589f03a08b1b86de6b633eaa428b62956cced7",
      "d62db1e10eb0d89cfeccc75992a0d2b90744d0dfa81173b7fd4e78d891506457",
      "7e060a3062b5799aa3d4742cb996e42cb870e94920b2225b2185923b390a54af",
      "20bb509a96573484142992645521fa4fa7d3827d7ddf291d6f880f83818a9e51"}},
    {"lo corrupting_lo",
     {"2c561df84fb471442a793cab2e1d7f3b50701837a2196f0a80bfb1363d44195c",
      "b343dc58437d45cf2be559e0fea7651295f3fec727d8d13d6048a034100db044",
      "6832bc0ee151cf966a9f8822a049071815d729eefc1faa61cc733c362c73f3df",
      "7205a44881423d4ff4eff74fe34fab8f96f160ce07f71cfb09cdc764f2ad9ae8",
      "6b0fd1a0bd1cc3bfb09bf203bbdcdbe2589a1b534da44e74d4f65bb747a7df4a",
      "293c32e1d760487228b2ec172d987eb6ba5f3b327e70c0bc15cd2b972255f524"}},
    {"lo refusing_lo",
     {"be58d9f1820d79f58d5b5c7bc2efe72e6a691b324473621dc0a4df0423cebe87",
      "57ca4997152e08ea2cffd79eea3374d3cad64d9743187e741fc5e8c8c6704020",
      "a488396f5646f1421532914ce20f8bf1494e02a1fa2b785480dc81bbd9a396e4",
      "a6e9c23f30e28eb1ffa3ce4e1317d4d7b92df9b2fd1e7b7fcff0a7f70e1058b7",
      "1671bcb8a5e4333baa40aa40aaebef89b6ea1c433f50ca87e0ce555bb917fb16",
      "74221a75fab3374a450ea31f9bf5cd283b0ff2c23caace76b2d5ebfaf27a3b2b"}},
    {"lo payment_cheater",
     {"b3b5aa026f600b2b0e48850b123c790404f6aebf7b6218917a1696554bbbcd55",
      "6a1318e07b9f31795f63e2f50681c4100a96e03d0b7f0cc0b55c302340871b30",
      "688eb974d331ce89807a2b06c5681ba7a17182dc747e70a44e5ea8f1f03f015a",
      "405e978dbee794f846322d53a1961012fab066708eedd1574ba787c963a4d01f",
      "7d2a3066f466735ab5e05995ce46d3fa017e2584cbe7cb238eba298ad2363d49",
      "f50d6be71c6bd75004d77a59a0cb184ad48e139768ce41cf2ceaa12cdced2649"}},
    {"lo contradictory_payer",
     {"114ae7385820d6a8fc3827ec7599753c49e33687bc0d60c9b39ba2f19d8c6b40",
      "6a1318e07b9f31795f63e2f50681c4100a96e03d0b7f0cc0b55c302340871b30",
      "bf527dcda111bef91d7bd6871adcbee22c8a6521b6a420f1d3c56dbdec145de6",
      "9bfbf91f925e3d322882a85466b38b631134aedfc99bece0b4be29c690657f1e",
      "1e2ccc2a591c1a209cd7dc67f772dbe297ee848255b61dc63e6480968e385348",
      "dfe716c0b33ed0b66f36f21eead7617eb3efe81ae57a3a4da38945cf0303a90f"}},
    {"seed=1",
     {"02a7e1bea4392f7f93d6cc71ff6dea2ef211acd7a77d4ee1eef771346a80168c",
      "48da1fdcefd6eae3ba917332d5fde2ced7ca97a10cdb1ed456e714862ba3e99e",
      "dc55f917c35bc42363c3b83924fd95b4cad640f183651aab9ff24cdb8c737ffb",
      "4b5e39a7b0980747184544de2c5966d7e28e03e7de52d701a18ccb0a0146cd48",
      "a2c4b93188a267165e1ee337c61615d362e61ad26042ba0356f8b3a795a42d77",
      "f13067c74ed64c09bdb7ab4f986e6d7c696ebfb2b60020f9fe2084b1ac32b2e6"}},
    {"seed=7",
     {"02a7e1bea4392f7f93d6cc71ff6dea2ef211acd7a77d4ee1eef771346a80168c",
      "48da1fdcefd6eae3ba917332d5fde2ced7ca97a10cdb1ed456e714862ba3e99e",
      "b17cf285406c43aa0f833115166291470e3447de2e7873b25edd595142e7840b",
      "4b5e39a7b0980747184544de2c5966d7e28e03e7de52d701a18ccb0a0146cd48",
      "a2c4b93188a267165e1ee337c61615d362e61ad26042ba0356f8b3a795a42d77",
      "f13067c74ed64c09bdb7ab4f986e6d7c696ebfb2b60020f9fe2084b1ac32b2e6"}},
    {"seed=1234",
     {"02a7e1bea4392f7f93d6cc71ff6dea2ef211acd7a77d4ee1eef771346a80168c",
      "48da1fdcefd6eae3ba917332d5fde2ced7ca97a10cdb1ed456e714862ba3e99e",
      "30441b5c7ea01c8ee01ba085a1e05dbfcf27736a9e9a26ce0efc21423d2ec1df",
      "4b5e39a7b0980747184544de2c5966d7e28e03e7de52d701a18ccb0a0146cd48",
      "a2c4b93188a267165e1ee337c61615d362e61ad26042ba0356f8b3a795a42d77",
      "f13067c74ed64c09bdb7ab4f986e6d7c696ebfb2b60020f9fe2084b1ac32b2e6"}},
};
// clang-format on

struct Scenario {
    std::string label;
    ProtocolConfig config;
};

ProtocolConfig base_config(dlt::NetworkKind kind) {
    ProtocolConfig config;
    config.kind = kind;
    config.z = 0.25;
    config.true_w = {1.0, 2.0, 1.5, 0.8};
    config.block_count = 1200;
    config.seed = 42;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    config.strategies.assign(config.true_w.size(), agents::truthful());
    return config;
}

constexpr dlt::NetworkKind kKinds[] = {dlt::NetworkKind::kNcpFE, dlt::NetworkKind::kNcpNFE};

std::vector<Scenario> honest_scenarios() {
    std::vector<Scenario> out;
    for (const auto kind : kKinds) {
        out.push_back({std::string("honest ") + dlt::to_string(kind), base_config(kind)});
    }
    return out;
}

std::vector<Scenario> bandwidth_scenarios() {
    auto config = base_config(dlt::NetworkKind::kNcpFE);
    config.control_latency = 0.002;
    config.control_seconds_per_byte = 1e-5;
    return {{"bandwidth-charged", config}};
}

std::vector<Scenario> worker_deviant_scenarios() {
    std::vector<Scenario> out;
    for (const auto kind : kKinds) {
        for (const auto& deviant : agents::worker_deviants()) {
            auto config = base_config(kind);
            config.strategies[2] = deviant;
            out.push_back({std::string(dlt::to_string(kind)) + " worker " + deviant.name,
                           config});
        }
    }
    return out;
}

std::vector<Scenario> lo_deviant_scenarios() {
    std::vector<Scenario> out;
    for (const auto& deviant : agents::lo_deviants()) {
        auto config = base_config(dlt::NetworkKind::kNcpFE);
        config.strategies[0] = deviant;
        out.push_back({"lo " + deviant.name, config});
    }
    return out;
}

std::vector<Scenario> seed_scenarios() {
    std::vector<Scenario> out;
    for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
        auto config = base_config(dlt::NetworkKind::kNcpNFE);
        config.seed = seed;
        out.push_back({"seed=" + std::to_string(seed), config});
    }
    return out;
}

void expect_golden(const std::vector<Scenario>& scenarios) {
    for (const auto& scenario : scenarios) {
        test_support::expect_golden(test_support::capture(scenario.config), scenario.label,
                                    kGolden);
    }
}

TEST(ProtocolGolden, HonestRuns) { expect_golden(honest_scenarios()); }

TEST(ProtocolGolden, BandwidthChargedControlPlane) { expect_golden(bandwidth_scenarios()); }

TEST(ProtocolGolden, WorkerDeviantZoo) { expect_golden(worker_deviant_scenarios()); }

TEST(ProtocolGolden, LoDeviantZoo) { expect_golden(lo_deviant_scenarios()); }

TEST(ProtocolGolden, Seeds) { expect_golden(seed_scenarios()); }

// The table pins exactly the zoo: one row per scenario, no stale rows.
TEST(ProtocolGolden, TableCoversExactlyTheZoo) {
    std::vector<std::string> labels;
    for (const auto& group : {honest_scenarios(), bandwidth_scenarios(),
                              worker_deviant_scenarios(), lo_deviant_scenarios(),
                              seed_scenarios()}) {
        for (const auto& scenario : group) labels.push_back(scenario.label);
    }
    std::vector<std::string> pinned;
    for (const auto& golden : kGolden) pinned.emplace_back(golden.scenario);
    std::sort(labels.begin(), labels.end());
    std::sort(pinned.begin(), pinned.end());
    EXPECT_EQ(std::adjacent_find(labels.begin(), labels.end()), labels.end());
    EXPECT_EQ(labels, pinned);
}

}  // namespace
}  // namespace dlsbl::protocol
