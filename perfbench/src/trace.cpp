#include "trace.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

bool Tracer::write_chrome_json(const std::string& path) const {
    const std::vector<Span> all = spans();
    std::int64_t origin = 0;
    if (!all.empty()) {
        origin = std::min_element(all.begin(), all.end(),
                                  [](const Span& a, const Span& b) {
                                      return a.start_ns < b.start_ns;
                                  })
                     ->start_ns;
    }
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    char buf[512];
    bool first = true;
    for (const Span& s : all) {
        std::snprintf(
            buf, sizeof(buf),
            "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
            "\"parent\":%llu,\"request\":%llu}}",
            first ? "" : ",", s.name, s.thread,
            static_cast<double>(s.start_ns - origin) / 1000.0,
            static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent),
            static_cast<unsigned long long>(s.request));
        out << buf;
        first = false;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

}  // namespace perfbench
