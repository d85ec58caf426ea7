#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace wfrm::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  // First bucket whose upper bound encloses the value ("le" semantics:
  // a value equal to a bound lands in that bound's bucket).
  size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

const std::vector<double>& Histogram::LatencyBucketsMicros() {
  static const std::vector<double>* kBuckets = new std::vector<double>{
      1,     2,     5,     10,     20,     50,     100,     200,     500,
      1'000, 2'000, 5'000, 10'000, 20'000, 50'000, 100'000, 200'000, 500'000,
      1'000'000, 2'000'000, 5'000'000, 10'000'000};
  return *kBuckets;
}

std::vector<uint64_t> Histogram::CumulativeCounts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  uint64_t running = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    running += buckets_[i].load(std::memory_order_relaxed);
    out[i] = running;
  }
  return out;
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string EscapeHelp(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string EscapeJson(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string FormatBound(double bound) {
  if (std::isinf(bound)) return "+Inf";
  // Integral bounds print without a trailing ".0" — matches what
  // Prometheus client libraries emit for le="10".
  if (bound == std::floor(bound) && std::abs(bound) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(bound));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", bound);
  return buf;
}

namespace {

std::string FormatValue(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Renders `{k="v",...}` (empty string for no labels), with an optional
/// extra label appended (the histogram "le").
std::string RenderLabels(const LabelMap& labels, const std::string& extra_key,
                         const std::string& extra_value) {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + EscapeLabelValue(v) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + EscapeLabelValue(extra_value) + "\"";
  }
  out += "}";
  return out;
}

std::string RenderLabelsJson(const LabelMap& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += '"';
    out += EscapeJson(k);
    out += "\":\"";
    out += EscapeJson(v);
    out += '"';
  }
  out += "}";
  return out;
}

}  // namespace

std::string MetricsRegistry::Key(const std::string& name,
                                 const LabelMap& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key.push_back('\x1f');
    key += k;
    key.push_back('\x1e');
    key += v;
  }
  return key;
}

MetricsRegistry::Instrument* MetricsRegistry::FindOrCreate(
    Kind kind, const std::string& name, const LabelMap& labels,
    const std::string& help, std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!help.empty() && family_help_[name].empty()) family_help_[name] = help;
  std::string key = Key(name, labels);
  auto it = instruments_.find(key);
  if (it != instruments_.end()) return it->second.get();
  auto inst = std::make_unique<Instrument>();
  inst->kind = kind;
  inst->name = name;
  inst->labels = labels;
  inst->help = help;
  switch (kind) {
    case Kind::kCounter:
      inst->counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      inst->gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      inst->histogram = std::make_unique<Histogram>(std::move(bounds));
      break;
  }
  Instrument* raw = inst.get();
  instruments_[key] = std::move(inst);
  return raw;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const LabelMap& labels,
                                     const std::string& help) {
  return FindOrCreate(Kind::kCounter, name, labels, help, {})->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const LabelMap& labels,
                                 const std::string& help) {
  return FindOrCreate(Kind::kGauge, name, labels, help, {})->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds,
                                         const LabelMap& labels,
                                         const std::string& help) {
  return FindOrCreate(Kind::kHistogram, name, labels, help, std::move(bounds))
      ->histogram.get();
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return instruments_.size();
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  // The map is keyed by name + labels, so instruments of one metric
  // family are adjacent; emit HELP/TYPE once per family.
  std::string last_family;
  for (const auto& [key, inst] : instruments_) {
    if (inst->name != last_family) {
      last_family = inst->name;
      auto help_it = family_help_.find(inst->name);
      if (help_it != family_help_.end() && !help_it->second.empty()) {
        out += "# HELP " + inst->name + " " + EscapeHelp(help_it->second) +
               "\n";
      }
      const char* type = inst->kind == Kind::kCounter ? "counter"
                         : inst->kind == Kind::kGauge ? "gauge"
                                                      : "histogram";
      out += "# TYPE " + inst->name + " " + type + "\n";
    }
    switch (inst->kind) {
      case Kind::kCounter:
        out += inst->name + RenderLabels(inst->labels, "", "") + " " +
               std::to_string(inst->counter->Value()) + "\n";
        break;
      case Kind::kGauge:
        out += inst->name + RenderLabels(inst->labels, "", "") + " " +
               std::to_string(inst->gauge->Value()) + "\n";
        break;
      case Kind::kHistogram: {
        const Histogram& h = *inst->histogram;
        std::vector<uint64_t> cum = h.CumulativeCounts();
        for (size_t i = 0; i < h.bounds().size(); ++i) {
          out += inst->name + "_bucket" +
                 RenderLabels(inst->labels, "le", FormatBound(h.bounds()[i])) +
                 " " + std::to_string(cum[i]) + "\n";
        }
        out += inst->name + "_bucket" +
               RenderLabels(inst->labels, "le", "+Inf") + " " +
               std::to_string(cum.back()) + "\n";
        out += inst->name + "_sum" + RenderLabels(inst->labels, "", "") + " " +
               FormatValue(h.Sum()) + "\n";
        out += inst->name + "_count" + RenderLabels(inst->labels, "", "") +
               " " + std::to_string(h.Count()) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string counters, gauges, histograms;
  for (const auto& [key, inst] : instruments_) {
    switch (inst->kind) {
      case Kind::kCounter:
        if (!counters.empty()) counters += ",";
        counters += "{\"name\":\"" + EscapeJson(inst->name) +
                    "\",\"labels\":" + RenderLabelsJson(inst->labels) +
                    ",\"value\":" + std::to_string(inst->counter->Value()) +
                    "}";
        break;
      case Kind::kGauge:
        if (!gauges.empty()) gauges += ",";
        gauges += "{\"name\":\"" + EscapeJson(inst->name) +
                  "\",\"labels\":" + RenderLabelsJson(inst->labels) +
                  ",\"value\":" + std::to_string(inst->gauge->Value()) + "}";
        break;
      case Kind::kHistogram: {
        const Histogram& h = *inst->histogram;
        if (!histograms.empty()) histograms += ",";
        histograms += "{\"name\":\"" + EscapeJson(inst->name) +
                      "\",\"labels\":" + RenderLabelsJson(inst->labels) +
                      ",\"count\":" + std::to_string(h.Count()) +
                      ",\"sum\":" + FormatValue(h.Sum()) + ",\"buckets\":[";
        std::vector<uint64_t> cum = h.CumulativeCounts();
        for (size_t i = 0; i <= h.bounds().size(); ++i) {
          if (i > 0) histograms += ",";
          const std::string le =
              i < h.bounds().size() ? FormatBound(h.bounds()[i]) : "+Inf";
          histograms += "{\"le\":\"" + le +
                        "\",\"count\":" + std::to_string(cum[i]) + "}";
        }
        histograms += "]}";
        break;
      }
    }
  }
  return "{\"counters\":[" + counters + "],\"gauges\":[" + gauges +
         "],\"histograms\":[" + histograms + "]}";
}

}  // namespace wfrm::obs
