#include "faults/spec.hpp"

#include <limits>

#include "common/expect.hpp"
#include "common/strings.hpp"

namespace osim::faults {

namespace {

[[noreturn]] void bad(const std::string& clause, const std::string& why) {
  throw Error("fault spec: clause '" + clause + "': " + why);
}

/// Duration with optional s/ms/us suffix, returned in seconds.
double parse_duration_s(const std::string& clause, std::string_view text) {
  double unit = 1.0;
  std::string_view number = text;
  if (text.size() >= 2 && text.substr(text.size() - 2) == "us") {
    unit = 1e-6;
    number = text.substr(0, text.size() - 2);
  } else if (text.size() >= 2 && text.substr(text.size() - 2) == "ms") {
    unit = 1e-3;
    number = text.substr(0, text.size() - 2);
  } else if (!text.empty() && text.back() == 's') {
    number = text.substr(0, text.size() - 1);
  }
  // `inf` is a valid `until` (an open-ended window, as to_spec() writes
  // the default); every other duration is a finite number.
  if (number == "inf") return std::numeric_limits<double>::infinity();
  const auto parsed = parse_f64(number);
  if (!parsed || *parsed < 0.0) {
    bad(clause, "bad duration '" + std::string(text) + "'");
  }
  return *parsed * unit;
}

/// Same grammar, returned in microseconds. Kept separate from
/// parse_duration_s so microsecond-denominated model fields (timeout, lat)
/// never round-trip through seconds — the double conversion is lossy and
/// would break to_spec() being a fixed point.
double parse_duration_us(const std::string& clause, std::string_view text) {
  double unit = 1e6;
  std::string_view number = text;
  if (text.size() >= 2 && text.substr(text.size() - 2) == "us") {
    unit = 1.0;
    number = text.substr(0, text.size() - 2);
  } else if (text.size() >= 2 && text.substr(text.size() - 2) == "ms") {
    unit = 1e3;
    number = text.substr(0, text.size() - 2);
  } else if (!text.empty() && text.back() == 's') {
    number = text.substr(0, text.size() - 1);
  }
  const auto parsed = parse_f64(number);
  if (!parsed || *parsed < 0.0) {
    bad(clause, "bad duration '" + std::string(text) + "'");
  }
  return *parsed * unit;
}

double parse_number(const std::string& clause, const std::string& key,
                    std::string_view text, double lo, double hi) {
  const auto parsed = parse_f64(text);
  if (!parsed || !(*parsed >= lo) || !(*parsed <= hi)) {
    bad(clause, strprintf("%s must be a number in [%g, %g], got '%s'",
                          key.c_str(), lo, hi, std::string(text).c_str()));
  }
  return *parsed;
}

trace::Rank parse_rank(const std::string& clause, std::string_view text) {
  if (text == "any") return -1;
  const auto parsed = parse_i64(text);
  if (!parsed || *parsed < 0 || *parsed > 1'000'000) {
    bad(clause, "bad rank '" + std::string(text) + "' (number or 'any')");
  }
  return static_cast<trace::Rank>(*parsed);
}

struct Pair {
  std::string key;
  std::string value;
};

std::vector<Pair> parse_pairs(const std::string& clause) {
  std::vector<Pair> pairs;
  for (const std::string& field : split(clause, ',')) {
    const std::string item(trim(field));
    if (item.empty()) bad(clause, "empty field");
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      bad(clause, "expected key=value, got '" + item + "'");
    }
    pairs.push_back(Pair{item.substr(0, eq), item.substr(eq + 1)});
  }
  return pairs;
}

void parse_loss(const std::string& clause, const std::vector<Pair>& pairs,
                MessageLoss* loss) {
  loss->probability = parse_number(clause, "loss", pairs[0].value, 0.0, 1.0);
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    const Pair& p = pairs[i];
    if (p.key == "timeout") {
      loss->timeout_us = parse_duration_us(clause, p.value);
    } else if (p.key == "backoff") {
      loss->backoff = parse_number(clause, "backoff", p.value, 1.0, 64.0);
    } else if (p.key == "retries") {
      loss->max_retries = static_cast<std::int64_t>(
          parse_number(clause, "retries", p.value, 0.0, 64.0));
    } else {
      bad(clause, "unknown key '" + p.key + "'");
    }
  }
}

void parse_noise(const std::string& clause, const std::vector<Pair>& pairs,
                 ComputeNoise* noise) {
  noise->magnitude = parse_number(clause, "noise", pairs[0].value, 0.0, 1e3);
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    const Pair& p = pairs[i];
    if (p.key == "prob") {
      noise->probability = parse_number(clause, "prob", p.value, 0.0, 1.0);
    } else {
      bad(clause, "unknown key '" + p.key + "'");
    }
  }
}

void parse_degrade(const std::string& clause, const std::vector<Pair>& pairs,
                   LinkDegradation* window) {
  const std::size_t dash = pairs[0].value.find('-');
  if (dash == std::string::npos) {
    bad(clause, "expected degrade=<src>-<dst>");
  }
  window->src = parse_rank(clause, pairs[0].value.substr(0, dash));
  window->dst = parse_rank(clause, pairs[0].value.substr(dash + 1));
  window->end_s = std::numeric_limits<double>::infinity();
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    const Pair& p = pairs[i];
    if (p.key == "from") {
      window->begin_s = parse_duration_s(clause, p.value);
    } else if (p.key == "until") {
      window->end_s = parse_duration_s(clause, p.value);
    } else if (p.key == "bw") {
      window->bandwidth_scale = parse_number(clause, "bw", p.value, 1e-6, 1.0);
    } else if (p.key == "lat") {
      window->extra_latency_us = parse_duration_us(clause, p.value);
    } else {
      bad(clause, "unknown key '" + p.key + "'");
    }
  }
  if (!(window->end_s > window->begin_s)) {
    bad(clause, "window is empty (until <= from)");
  }
}

void parse_straggler(const std::string& clause, const std::vector<Pair>& pairs,
                     Straggler* window) {
  window->rank = parse_rank(clause, pairs[0].value);
  window->end_s = std::numeric_limits<double>::infinity();
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    const Pair& p = pairs[i];
    if (p.key == "from") {
      window->begin_s = parse_duration_s(clause, p.value);
    } else if (p.key == "until") {
      window->end_s = parse_duration_s(clause, p.value);
    } else if (p.key == "cpu") {
      window->cpu_scale = parse_number(clause, "cpu", p.value, 1e-6, 1.0);
    } else {
      bad(clause, "unknown key '" + p.key + "'");
    }
  }
  if (!(window->end_s > window->begin_s)) {
    bad(clause, "window is empty (until <= from)");
  }
}

std::string rank_repr(trace::Rank rank) {
  return rank < 0 ? "any" : std::to_string(rank);
}

/// %.17g: shortest round-trippable form is unnecessary — exactness is, and
/// 17 significant digits round-trip every double.
std::string num_repr(double v) { return strprintf("%.17g", v); }

std::string duration_repr(double seconds) {
  return num_repr(seconds) + "s";
}

std::string duration_us_repr(double us) { return num_repr(us) + "us"; }

}  // namespace

FaultModel parse_spec(const std::string& spec) {
  FaultModel model;
  for (const std::string& raw : split(spec, ';')) {
    const std::string clause(trim(raw));
    if (clause.empty()) continue;
    const std::vector<Pair> pairs = parse_pairs(clause);
    const std::string& kind = pairs[0].key;
    if (kind == "seed") {
      const auto parsed = parse_u64(pairs[0].value);
      if (!parsed || pairs.size() != 1) bad(clause, "expected seed=<u64>");
      model.seed = *parsed;
    } else if (kind == "loss") {
      parse_loss(clause, pairs, &model.loss);
    } else if (kind == "noise") {
      parse_noise(clause, pairs, &model.noise);
    } else if (kind == "degrade") {
      LinkDegradation window;
      parse_degrade(clause, pairs, &window);
      model.degradations.push_back(window);
    } else if (kind == "straggler") {
      Straggler window;
      parse_straggler(clause, pairs, &window);
      model.stragglers.push_back(window);
    } else {
      bad(clause,
          "unknown mechanism (expected seed, loss, noise, degrade or "
          "straggler)");
    }
  }
  return model;
}

std::string to_spec(const FaultModel& model) {
  if (!model.enabled()) return "";
  std::vector<std::string> clauses;
  clauses.push_back("seed=" + std::to_string(model.seed));
  if (model.loss.probability > 0.0) {
    clauses.push_back(strprintf(
        "loss=%s,timeout=%s,backoff=%s,retries=%lld",
        num_repr(model.loss.probability).c_str(),
        duration_us_repr(model.loss.timeout_us).c_str(),
        num_repr(model.loss.backoff).c_str(),
        static_cast<long long>(model.loss.max_retries)));
  }
  if (model.noise.magnitude > 0.0) {
    clauses.push_back(strprintf("noise=%s,prob=%s",
                                num_repr(model.noise.magnitude).c_str(),
                                num_repr(model.noise.probability).c_str()));
  }
  for (const LinkDegradation& w : model.degradations) {
    clauses.push_back(strprintf(
        "degrade=%s-%s,from=%s,until=%s,bw=%s,lat=%s",
        rank_repr(w.src).c_str(), rank_repr(w.dst).c_str(),
        duration_repr(w.begin_s).c_str(), duration_repr(w.end_s).c_str(),
        num_repr(w.bandwidth_scale).c_str(),
        duration_us_repr(w.extra_latency_us).c_str()));
  }
  for (const Straggler& w : model.stragglers) {
    clauses.push_back(strprintf(
        "straggler=%s,from=%s,until=%s,cpu=%s", rank_repr(w.rank).c_str(),
        duration_repr(w.begin_s).c_str(), duration_repr(w.end_s).c_str(),
        num_repr(w.cpu_scale).c_str()));
  }
  return join(clauses, ";");
}

}  // namespace osim::faults
