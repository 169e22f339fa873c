#include "obs/manifest.hpp"

#include "obs/json.hpp"

#ifndef DLSBL_GIT_DESCRIBE
#define DLSBL_GIT_DESCRIBE "unknown"
#endif
#ifndef DLSBL_BUILD_TYPE
#define DLSBL_BUILD_TYPE "unknown"
#endif

namespace dlsbl::obs {

const char* RunManifest::git_describe() noexcept { return DLSBL_GIT_DESCRIBE; }

const char* RunManifest::build_type() noexcept { return DLSBL_BUILD_TYPE; }

RunManifest& RunManifest::set(std::string key, std::string value) {
    fields_.emplace_back(std::move(key), std::make_pair(std::move(value), false));
    return *this;
}

RunManifest& RunManifest::set_num(std::string key, double value) {
    fields_.emplace_back(std::move(key), std::make_pair(json_number(value), true));
    return *this;
}

RunManifest& RunManifest::set_uint(std::string key, std::uint64_t value) {
    fields_.emplace_back(std::move(key), std::make_pair(std::to_string(value), true));
    return *this;
}

std::string RunManifest::to_json(const MetricsRegistry* metrics) const {
    std::string out = "{\"v\":" + std::to_string(kSchemaVersion) + ",\"tool\":\"dlsbl\",\"git\":";
    append_json_string(out, git_describe());
    out += ",\"build\":";
    append_json_string(out, build_type());
    for (const auto& [key, value] : fields_) {
        out += ',';
        append_json_string(out, key);
        out += ':';
        if (value.second) {
            out += value.first;
        } else {
            append_json_string(out, value.first);
        }
    }
    if (metrics != nullptr) {
        out += ",\"metrics\":";
        out += metrics->json_snapshot();
    }
    out += '}';
    return out;
}

}  // namespace dlsbl::obs
