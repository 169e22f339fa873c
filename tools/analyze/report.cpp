#include "analyze/report.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>

#include "obs/json.hpp"
#include "obs/manifest.hpp"

namespace dlsbl::analyze {
namespace {

bool known_kind(const std::string& kind) {
    if (kind == "sanitize" || kind == "*") return true;
    const std::vector<std::string>& ids = all_pass_ids();
    return std::find(ids.begin(), ids.end(), kind) != ids.end();
}

bool inline_allowed(const Program& program, const Finding& finding) {
    const FileModel* file = program.file(finding.file);
    if (file == nullptr) return false;
    const auto it = file->lexed.allow.find(finding.line);
    return it != file->lexed.allow.end() &&
           (it->second.count(finding.pass) > 0 || it->second.count("*") > 0);
}

}  // namespace

bool glob_match(std::string_view glob, std::string_view text) {
    // Iterative '*' backtracking; '?' matches one character.
    std::size_t g = 0;
    std::size_t t = 0;
    std::size_t star = std::string_view::npos;
    std::size_t mark = 0;
    while (t < text.size()) {
        if (g < glob.size() && (glob[g] == text[t] || glob[g] == '?')) {
            ++g;
            ++t;
        } else if (g < glob.size() && glob[g] == '*') {
            star = g++;
            mark = t;
        } else if (star != std::string_view::npos) {
            g = star + 1;
            t = ++mark;
        } else {
            return false;
        }
    }
    while (g < glob.size() && glob[g] == '*') ++g;
    return g == glob.size();
}

Facts parse_facts(std::string_view text) {
    Facts facts;
    std::size_t line_no = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t eol = text.find('\n', pos);
        std::string_view line = text.substr(
            pos, eol == std::string_view::npos ? text.size() - pos
                                               : eol - pos);
        pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
        ++line_no;
        while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
            line.remove_prefix(1);
        }
        if (line.empty() || line.front() == '#') continue;
        std::istringstream in{std::string(line)};
        FactEntry entry;
        entry.line = line_no;
        in >> entry.kind >> entry.glob;
        std::getline(in, entry.justification);
        while (!entry.justification.empty() &&
               entry.justification.front() == ' ') {
            entry.justification.erase(entry.justification.begin());
        }
        if (entry.kind.empty() || entry.glob.empty()) {
            facts.errors.push_back("facts line " + std::to_string(line_no) +
                                   ": expected '<kind> <glob> justification'");
            continue;
        }
        if (!known_kind(entry.kind)) {
            facts.errors.push_back("facts line " + std::to_string(line_no) +
                                   ": unknown kind '" + entry.kind + "'");
            continue;
        }
        if (entry.justification.empty()) {
            facts.errors.push_back("facts line " + std::to_string(line_no) +
                                   ": entry needs a justification");
            continue;
        }
        facts.entries.push_back(std::move(entry));
    }
    return facts;
}

void Facts::configure(TaintConfig* taint) const {
    taint->sanitized.clear();
    taint->source_exempt.clear();
    for (const FactEntry& e : entries) {
        if (e.kind == "sanitize") taint->sanitized.push_back(e.glob);
        if (e.kind == kRuleDeterminism) taint->source_exempt.push_back(e.glob);
    }
}

bool Facts::skips(const std::string& path) const {
    for (const FactEntry& e : entries) {
        if (e.kind == "*" && glob_match(e.glob, path)) {
            ++e.hits;
            return true;
        }
    }
    return false;
}

bool Facts::suppresses(const Finding& finding) const {
    for (const FactEntry& e : entries) {
        if (e.kind != finding.pass) continue;
        if (glob_match(e.glob, finding.file) ||
            (!finding.symbol.empty() && glob_match(e.glob, finding.symbol))) {
            ++e.hits;
            return true;
        }
    }
    return false;
}

std::vector<const FactEntry*> Facts::unused() const {
    std::vector<const FactEntry*> out;
    for (const FactEntry& e : entries) {
        if (e.hits == 0) out.push_back(&e);
    }
    return out;
}

Filtered apply_facts(const Facts& facts, const Program& program,
                     std::vector<Finding> findings) {
    for (const FactEntry& e : facts.entries) {
        if (e.kind != "sanitize") continue;
        for (const auto& [path, model] : program.files) {
            for (const FunctionDef& fn : model.functions) {
                if (glob_match(e.glob, fn.qualified)) ++e.hits;
            }
        }
    }
    Filtered out;
    for (Finding& f : findings) {
        if (inline_allowed(program, f) || facts.suppresses(f)) {
            ++out.suppressed;
        } else {
            out.kept.push_back(std::move(f));
        }
    }
    return out;
}

bool print_report(const std::vector<Finding>& findings, std::size_t suppressed,
                  std::size_t files, std::ostream& out) {
    for (const Finding& f : findings) {
        out << f.file;
        if (f.line != 0) out << ':' << f.line;
        if (f.col != 0) out << ':' << f.col;
        out << ": [" << f.pass << "] " << f.message << '\n';
        for (const std::string& note : f.notes) {
            out << "    note: " << note << '\n';
        }
    }
    out << "dlsbl_analyze: " << files << " files, " << findings.size()
        << " findings, " << suppressed << " suppressed\n";
    return findings.empty();
}

std::string report_json(const std::vector<Finding>& findings,
                        std::size_t suppressed, std::size_t files) {
    obs::RunManifest manifest;
    manifest.set("generator", "dlsbl_analyze");
    std::string doc =
        "{\"manifest\":" + manifest.to_json() + ",\"findings\":[";
    bool first = true;
    for (const Finding& f : findings) {
        if (!first) doc += ',';
        first = false;
        doc += "{\"pass\":" + obs::json_escape(f.pass) +
               ",\"file\":" + obs::json_escape(f.file) +
               ",\"line\":" + std::to_string(f.line) +
               ",\"col\":" + std::to_string(f.col) +
               ",\"symbol\":" + obs::json_escape(f.symbol) +
               ",\"message\":" + obs::json_escape(f.message) + ",\"notes\":[";
        bool first_note = true;
        for (const std::string& note : f.notes) {
            if (!first_note) doc += ',';
            first_note = false;
            doc += obs::json_escape(note);
        }
        doc += "]}";
    }
    doc += "],\"summary\":{\"files\":" + std::to_string(files) +
           ",\"findings\":" + std::to_string(findings.size()) +
           ",\"suppressed\":" + std::to_string(suppressed) + "}}\n";
    return doc;
}

std::string report_sarif(const std::vector<Finding>& findings) {
    std::string rules;
    bool first = true;
    for (const std::string& id : all_pass_ids()) {
        if (!first) rules += ',';
        first = false;
        rules += "{\"id\":" + obs::json_escape(id) + '}';
    }
    std::string results;
    first = true;
    for (const Finding& f : findings) {
        if (!first) results += ',';
        first = false;
        results += "{\"ruleId\":" + obs::json_escape(f.pass) +
                   ",\"level\":\"error\",\"message\":{\"text\":" +
                   obs::json_escape(f.message) + '}';
        if (!f.file.empty()) {
            results +=
                ",\"locations\":[{\"physicalLocation\":{\"artifactLocation\":"
                "{\"uri\":" +
                obs::json_escape(f.file) + "},\"region\":{\"startLine\":" +
                std::to_string(f.line == 0 ? 1 : f.line) + "}}}]";
        }
        results += '}';
    }
    return "{\"version\":\"2.1.0\",\"$schema\":\"https://json.schemastore."
           "org/sarif-2.1.0.json\",\"runs\":[{\"tool\":{\"driver\":{"
           "\"name\":\"dlsbl_analyze\",\"informationUri\":"
           "\"https://example.invalid/dlsbl\",\"rules\":[" +
           rules + "]}},\"results\":[" + results + "]}]}\n";
}

}  // namespace dlsbl::analyze
