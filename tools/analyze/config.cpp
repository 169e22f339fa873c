// The repo's own analysis configuration: what dlsbl_analyze checks when
// pointed at this tree. Kept in code (not a config file) so a change to the
// architecture is a reviewed change to the analyzer gate.
#include <iterator>
#include <string>
#include <vector>

#include "analyze/passes.hpp"

namespace dlsbl::analyze {

AnalyzeConfig default_config() {
    AnalyzeConfig config;

    // Determinism taint. Protocol artifacts (bids, allocations, payments,
    // rulings, wire bytes, block hashes) must be pure functions of the
    // protocol state; the whole library surface below obs is protected.
    config.taint.protected_prefixes = {
        "src/protocol/", "src/crypto/", "src/dlt/",
        "src/mech/",     "src/sim/",    "src/exec/",
    };
    // Justified sources (obs clocks, bench timers) and sanitized functions
    // come from the facts file: Facts::configure.

    // Dispatch exhaustiveness: every MsgType must be registered (on or
    // ignore) by both dispatcher owners, and every churn event kind must be
    // adjudicated in churn.cpp.
    {
        DispatchCheck msg;
        msg.enum_name = "MsgType";
        msg.enum_file = "src/protocol/messages.hpp";
        msg.sites = {{"node", "src/protocol/node.cpp"},
                     {"referee", "src/protocol/referee.cpp"}};
        msg.registration_calls = {"on", "ignore"};
        config.dispatch.push_back(std::move(msg));

        DispatchCheck churn;
        churn.enum_name = "ChurnEventKind";
        churn.enum_file = "src/protocol/churn.hpp";
        churn.mention_files = {"src/protocol/churn.cpp"};
        config.dispatch.push_back(std::move(churn));
    }

    // Declared module DAG. A module may include itself plus the listed
    // modules; drivers/ and detail/ under protocol are the sanctioned
    // bridge to the sim/exec runtimes (sans-I/O core stays below them).
    config.layering.allowed = {
        {"util", {}},
        {"sim", {"util"}},
        {"obs", {"util", "sim"}},
        {"dlt", {"util", "obs"}},
        {"exec", {"util", "obs"}},
        {"crypto", {"util", "obs", "exec"}},
        {"mech", {"util", "dlt"}},
        {"protocol", {"util", "obs", "dlt", "crypto", "mech"}},
        {"agents", {"util", "obs", "dlt", "crypto", "protocol"}},
        {"baseline", {"util", "dlt"}},
    };
    config.layering.exceptions = {
        {"src/protocol/drivers/", {"sim", "exec"}},
        {"src/protocol/detail/", {"sim", "exec"}},
    };

    return config;
}

const std::vector<PassRun>& pass_runs() {
    static const std::vector<PassRun> kRuns = {
        {"file-rules",
         [](const Program& p, const AnalyzeConfig& c) {
             return pass_file_rules(p, c.taint);
         }},
        {kPassTaint,
         [](const Program& p, const AnalyzeConfig& c) {
             return pass_taint(p, c.taint);
         }},
        {kPassLockOrder,
         [](const Program& p, const AnalyzeConfig&) {
             return pass_lock_order(p);
         }},
        {kPassDispatch,
         [](const Program& p, const AnalyzeConfig& c) {
             return pass_dispatch(p, c.dispatch);
         }},
        {kPassLayering,
         [](const Program& p, const AnalyzeConfig& c) {
             return pass_layering(p, c.layering);
         }},
    };
    return kRuns;
}

std::vector<Finding> run_passes(const Program& program,
                                const AnalyzeConfig& config) {
    std::vector<Finding> findings;
    for (const PassRun& pass : pass_runs()) {
        std::vector<Finding> found = pass.run(program, config);
        findings.insert(findings.end(), std::make_move_iterator(found.begin()),
                        std::make_move_iterator(found.end()));
    }
    return findings;
}

const std::vector<std::string>& all_pass_ids() {
    static const std::vector<std::string> kIds = {
        kRuleDeterminism,   kRuleFloatEquality,  kRuleManualLock,
        kRuleCryptoAlloc,   kRulePragmaOnce,     kRuleUsingNamespace,
        kRuleMutableGlobal, kPassTaint,          kPassLockOrder,
        kPassDispatch,      kPassLayering,       kPassIncludeCycle,
    };
    return kIds;
}

}  // namespace dlsbl::analyze
