// analyzer-virtual-path: src/obs/fixture_exporter.cc
// Self-test fixture: src/obs/ is the read-side home — the plane's own
// exporters may walk the rings; the same calls trip obs-read-back
// anywhere else under src/.
#include <string>

namespace exist {
namespace obs {

std::string
renderEverything()
{
    std::string out = chromeTraceJson();
    out += flightDumpText(64);
    for (const auto &snap : snapshot())
        out += std::to_string(snap.total);
    return out;
}

}  // namespace obs
}  // namespace exist
