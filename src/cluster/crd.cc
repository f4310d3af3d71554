#include "cluster/crd.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace exist {

namespace {

/** All of `text` as a finite number. */
bool
wholeNumber(const std::string &text, double *out)
{
    char *end = nullptr;
    *out = std::strtod(text.c_str(), &end);
    return !text.empty() && end == text.c_str() + text.size() &&
           std::isfinite(*out);
}

/** The shortest "%g" text that parses back to exactly `v`, so a
 *  rendered manifest re-parses to the same request (recovery replays
 *  the rendered form). Six digits, the stream default, when enough. */
std::string
shortest(double v)
{
    char buf[32];
    for (int digits = 6;; ++digits) {
        std::snprintf(buf, sizeof buf, "%.*g", digits, v);
        if (digits == 17 || std::strtod(buf, nullptr) == v)
            return buf;
    }
}

}  // namespace

bool
TraceRequest::set(const std::string &key, const std::string &value,
                  std::string *error)
{
    auto bad = [&](const char *want) {
        *error = key + " wants " + want + ", got '" + value + "'";
        return false;
    };
    bool *flag = key == "anomaly" ? &anomaly
                 : key == "ring"  ? &ring_buffers
                 : key == "net"   ? &net
                                  : nullptr;
    double *rate = key == "loss"        ? &net_loss
                   : key == "reorder"   ? &net_reorder
                   : key == "duplicate" ? &net_duplicate
                                        : nullptr;
    double x = 0;
    if (flag != nullptr) {
        if (value != "true" && value != "1" && value != "false" &&
            value != "0")
            return bad("true, false, 1 or 0");
        *flag = value == "true" || value == "1";
    } else if (rate != nullptr) {
        if (!wholeNumber(value, &x) || x < 0 || x >= 1)
            return bad("a probability in [0, 1)");
        *rate = x;
    } else if (key == "app") {
        if (value.empty())
            return bad("an application name");
        app = value;
    } else if (key == "period_ms") {
        // Rounded to the nearest cycle, so a rendered period re-parses
        // to the same cycle count; 0 cycles would mean "RCO decides".
        long long cycles =
            wholeNumber(value, &x) && x > 0 && x <= 1e9
                ? std::llround(x * static_cast<double>(kCyclesPerMs))
                : 0;
        if (cycles < 1)
            return bad("a number of ms in (0, 1e9]");
        period_override = static_cast<Cycles>(cycles);
    } else if (key == "budget_mb") {
        if (!wholeNumber(value, &x) || x != std::floor(x) || x < 1 ||
            x > 1048576)
            return bad("an integer in [1, 1048576]");
        budget_mb = static_cast<std::uint64_t>(x);
    } else if (key == "core_sample_ratio") {
        if (!wholeNumber(value, &x) || x < 0 || x > 1)
            return bad("a number in [0, 1]");
        core_sample_ratio = x;
    } else if (key == "link_latency_us") {
        if (!wholeNumber(value, &x) || x < 0 || x > 1e6)
            return bad("a number in [0, 1e6]");
        net_link_latency_us = x;
    } else {
        *error = "unknown manifest key '" + key + "'";
        return false;
    }
    return true;
}

bool
TraceRequest::parse(const std::string &manifest, TraceRequest *out,
                    std::string *error)
{
    TraceRequest req;
    std::istringstream in(manifest);
    std::string token;
    while (in >> token) {
        auto eq = token.find('=');
        if (eq == std::string::npos) {
            *error = "malformed manifest token '" + token +
                     "' (want key=value)";
            return false;
        }
        if (!req.set(token.substr(0, eq), token.substr(eq + 1), error))
            return false;
    }
    if (req.app.empty()) {
        *error = "manifest missing app=";
        return false;
    }
    *out = std::move(req);
    return true;
}

std::string
TraceRequest::toManifest() const
{
    std::ostringstream out;
    out << "app=" << app;
    if (anomaly)
        out << " anomaly=true";
    if (period_override)
        out << " period_ms=" << shortest(cyclesToMs(period_override));
    out << " budget_mb=" << budget_mb;
    if (ring_buffers)
        out << " ring=true";
    if (core_sample_ratio > 0)
        out << " core_sample_ratio=" << shortest(core_sample_ratio);
    if (net) {
        out << " net=true";
        if (net_loss > 0)
            out << " loss=" << shortest(net_loss);
        if (net_reorder > 0)
            out << " reorder=" << shortest(net_reorder);
        if (net_duplicate > 0)
            out << " duplicate=" << shortest(net_duplicate);
        if (net_link_latency_us != 50.0)
            out << " link_latency_us=" << shortest(net_link_latency_us);
    }
    return out.str();
}

net::NetSpec
TraceRequest::netSpec() const
{
    net::NetSpec spec;
    spec.enabled = net;
    spec.drop_rate = net_loss;
    spec.reorder_rate = net_reorder;
    spec.duplicate_rate = net_duplicate;
    spec.link_latency_us = net_link_latency_us;
    return spec;
}

}  // namespace exist
