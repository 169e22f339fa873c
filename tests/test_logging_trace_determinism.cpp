// Logger behaviour + byte-exact determinism of the simulated event trace
// and of the observability artifacts derived from it (JSONL event log,
// catapult export).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "obs/catapult.hpp"
#include "obs/event.hpp"
#include "obs/json.hpp"
#include "protocol/detail/run_internals.hpp"
#include "protocol/runner.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace dlsbl {
namespace {

TEST(Logging, LevelsFilter) {
    auto& logger = util::Logger::instance();
    const auto saved = logger.level();
    logger.set_level(util::LogLevel::Off);
    // Nothing to assert about stderr portably; the calls must simply be safe
    // at every level.
    util::log_error("test", "e");
    util::log_warn("test", "w");
    util::log_info("test", "i");
    util::log_debug("test", "d");
    logger.set_level(util::LogLevel::Debug);
    util::log_debug("test", "visible");
    EXPECT_EQ(logger.level(), util::LogLevel::Debug);
    logger.set_level(saved);
}

TEST(TraceDeterminism, IdenticalRunsIdenticalTraces) {
    protocol::ProtocolConfig config;
    config.kind = dlt::NetworkKind::kNcpNFE;
    config.z = 0.3;
    config.true_w = {1.0, 2.0, 1.5};
    config.block_count = 900;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;

    auto capture = [&config] {
        std::string rendered;
        protocol::run_protocol(config, [&](const protocol::RunInternals& internals) {
            rendered = internals.trace().render();
        });
        return rendered;
    };
    const std::string a = capture();
    const std::string b = capture();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);  // byte-exact replay
}

TEST(TraceDeterminism, InstanceChangesTrace) {
    protocol::ProtocolConfig config;
    config.kind = dlt::NetworkKind::kNcpFE;
    config.z = 0.3;
    config.true_w = {1.0, 2.0, 1.5};
    config.block_count = 900;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;

    auto capture = [&config] {
        std::string rendered;
        protocol::run_protocol(config, [&](const protocol::RunInternals& internals) {
            rendered = internals.trace().render();
        });
        return rendered;
    };
    const std::string a = capture();
    // A different machine profile changes allocations, transfer sizes and
    // compute spans — the trace must reflect it. (A different *seed* alone
    // changes signed payload bytes but not timing, so traces stay equal.)
    config.true_w = {1.0, 2.0, 0.7};
    const std::string b = capture();
    EXPECT_NE(a, b);
}

TEST(TraceDeterminism, IdenticalSeedsIdenticalJsonlAndCatapult) {
    protocol::ProtocolConfig config;
    config.kind = dlt::NetworkKind::kNcpFE;
    config.z = 0.25;
    config.true_w = {1.0, 2.0, 1.5};
    config.block_count = 600;
    config.seed = 7;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;

    auto capture = [&config] {
        auto& log = obs::EventLog::instance();
        log.reset();
        std::ostringstream jsonl;
        log.add_sink(std::make_shared<obs::JsonlSink>(jsonl));
        log.set_level(util::LogLevel::Debug);
        std::string catapult;
        protocol::run_protocol(config, [&](const protocol::RunInternals& internals) {
            catapult = obs::catapult_from_trace(internals.trace());
        });
        log.flush();
        log.reset();
        return std::make_pair(jsonl.str(), catapult);
    };
    const auto [jsonl_a, catapult_a] = capture();
    const auto [jsonl_b, catapult_b] = capture();
    EXPECT_FALSE(jsonl_a.empty());
    EXPECT_FALSE(catapult_a.empty());
    EXPECT_EQ(jsonl_a, jsonl_b);        // byte-identical event log
    EXPECT_EQ(catapult_a, catapult_b);  // byte-identical trace export
}

// Adversarial `detail` payloads — embedded quotes, backslashes, control
// characters, non-UTF8 bytes — must survive both the JSONL and the catapult
// emitters as valid JSON that decodes back to the original bytes.
TEST(TraceDeterminism, AdversarialDetailPayloadsStayValidJson) {
    const std::string handpicked[] = {
        "quote\" backslash\\ slash/",
        std::string("nul\0byte", 8),
        "newline\n tab\t return\r",
        "\x01\x02\x1f\x7f",
        "\xc3\xa9 utf8 then raw \xff\xfe",
        "{\"looks\":\"like json\"}",
    };
    for (const auto& payload : handpicked) {
        obs::Event event(util::LogLevel::Info, "fuzz", "detail");
        event.str("detail", payload);
        const auto doc = obs::json_parse(event.to_json());
        ASSERT_TRUE(doc.has_value()) << obs::json_escape(payload);
        EXPECT_EQ(doc->find("detail")->string, payload);

        sim::TraceRecorder trace;
        trace.record(0.5, sim::TraceKind::kVerdict, "referee", payload);
        const auto exported = obs::json_parse(obs::catapult_from_trace(trace));
        ASSERT_TRUE(exported.has_value()) << obs::json_escape(payload);
    }

    // Fuzz: random byte strings through the Event path.
    util::Xoshiro256 rng{0xdecafu};
    for (int round = 0; round < 100; ++round) {
        std::string payload;
        const std::size_t length = rng.uniform_int(0, 48);
        for (std::size_t i = 0; i < length; ++i) {
            payload.push_back(static_cast<char>(rng.uniform_int(0, 255)));
        }
        obs::Event event(util::LogLevel::Info, "fuzz", "detail");
        event.str("detail", payload);
        const auto doc = obs::json_parse(event.to_json());
        ASSERT_TRUE(doc.has_value()) << "round " << round;
        EXPECT_EQ(doc->find("detail")->string, payload) << "round " << round;
    }
}

}  // namespace
}  // namespace dlsbl
