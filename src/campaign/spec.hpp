// Campaign knobs: the command-line settings that shape a campaign's item
// list or its results. Each knob is declared once, in one table — the
// driver's (kDriverKnobs below) or its model's (fault::FaultModel::kKnobs,
// mutation::MutationModel::kKnobs) — and everything else is derived from
// that declaration: the tools' parse, --list-flags and usage text, the
// canonical spec (spec_argv) a fleet forwards to its workers, and the fleet
// fingerprint that hashes it.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "campaign/campaign.hpp"
#include "common/cli.hpp"
#include "common/status.hpp"
#include "common/strings.hpp"
#include "dataflow/triage.hpp"

namespace s4e::campaign {

enum class KnobKind : u8 {
  kSwitch,   // "--flag" clears a bool field (--no-gpr clears gpr_faults)
  kInteger,  // "--flag=N", N in [min, max]
  kChoice,   // "--flag=name" or a bare "--flag", read by `parse`
};

// One knob: a flag bound to a field of `Config`. The field travels as a
// number: a switch's bool, an integer's value, or the index of a choice's
// name in `choices`.
template <class Config>
struct Knob {
  const char* flag;
  KnobKind kind;
  long long (*get)(const Config&);
  void (*set)(Config&, long long);
  long long min = 0;  // kInteger: the accepted range
  long long max = 0;
  // kChoice: the names in value order, '|'-separated, and the value of a
  // name ("" for a bare flag), nullopt for an unknown one.
  const char* choices = "";
  std::optional<long long> (*parse)(std::string_view) = nullptr;

  // Set the field from the flag's text: an integer's value, or a choice's
  // "=name" part ("" when bare). A switch has none.
  Status assign(Config& config, std::string_view text) const {
    long long value = 0;
    if (kind == KnobKind::kInteger) {
      S4E_TRY(parsed, parse_flag_integer(flag, text, min, max));
      value = parsed;
    } else if (kind == KnobKind::kChoice) {
      const auto parsed = parse(text);
      if (!parsed) {
        return Error(ErrorCode::kInvalidArgument,
                     format("%s expects %s (got %s)", flag, choices,
                            std::string(text).c_str()));
      }
      value = *parsed;
    }
    set(config, value);
    return Status();
  }

  // Append the field's canonical token: "--flag=N", "--flag=name", or
  // "--flag" for a cleared switch (nothing for a set one).
  void write(const Config& config, std::vector<std::string>& argv) const {
    const long long value = get(config);
    if (kind == KnobKind::kInteger) {
      argv.push_back(format("%s=%lld", flag, value));
    } else if (kind == KnobKind::kChoice) {
      const auto names = split(choices, '|');
      argv.push_back(std::string(flag) + "=" +
                     std::string(names[static_cast<std::size_t>(value)]));
    } else if (value == 0) {
      argv.push_back(flag);
    }
  }

  // "[--flag]", "[--flag N]" or "[--flag[=a|b]]".
  std::string usage() const {
    if (kind == KnobKind::kSwitch) return format("[%s]", flag);
    if (kind == KnobKind::kInteger) return format("[%s N]", flag);
    return format("[%s[=%s]]", flag, choices);
  }
};

// Knobs over the field reached from a Config by the member pointers
// `Path`, e.g. <&DriverConfig::machine, &vp::MachineConfig::num_harts>.
template <class Config, auto... Path>
long long get_field(const Config& config) {
  return static_cast<long long>((config .* ... .* Path));
}
template <class Config, auto... Path>
void set_field(Config& config, long long value) {
  auto& field = (config .* ... .* Path);
  field = static_cast<std::remove_reference_t<decltype(field)>>(value);
}
// A switch, or an integer knob accepting [min, max].
template <class Config, auto... Path>
constexpr Knob<Config> field_knob(const char* flag, KnobKind kind,
                                  long long min = 0, long long max = 0) {
  return {flag, kind, get_field<Config, Path...>, set_field<Config, Path...>,
          min, max};
}

// The knobs the driver owns, shared by every model.
inline constexpr Knob<DriverConfig> kDriverKnobs[] = {
    {.flag = "--triage",
     .kind = KnobKind::kChoice,
     .get = get_field<DriverConfig, &DriverConfig::triage>,
     .set = set_field<DriverConfig, &DriverConfig::triage>,
     .choices = "off|on|verify",  // dataflow::TriageMode order
     .parse = [](std::string_view text) -> std::optional<long long> {
       const auto mode = dataflow::parse_triage_mode(text);
       if (!mode) return std::nullopt;
       return static_cast<long long>(*mode);
     }},
};

// Every knob of `Model`'s campaigns, in canonical order: the model's own
// table, then the driver's.
template <class Model, class Fn>
void for_each_knob(Fn&& fn) {
  for (const auto& knob : Model::kKnobs) fn(knob);
  for (const auto& knob : kDriverKnobs) fn(knob);
}

// The canonical spec of `config`: one token per knob in table order,
// integers in decimal. A fleet forwards it to its workers, and both sides
// fingerprint it.
template <class Model>
std::vector<std::string> spec_argv(const typename Model::Config& config) {
  std::vector<std::string> argv;
  for_each_knob<Model>([&](const auto& knob) { knob.write(config, argv); });
  return argv;
}

// A default Config with the knob tokens ("--flag" or "--flag=value") set.
// A token that names no knob of `Model` is an error.
template <class Model>
Result<typename Model::Config> parse_spec(
    const std::vector<std::string>& tokens) {
  typename Model::Config config;
  for (const std::string& token : tokens) {
    const std::size_t eq = token.find('=');
    const std::string flag = token.substr(0, eq);
    const std::string text =
        eq == std::string::npos ? "" : token.substr(eq + 1);
    Status status =
        Error(ErrorCode::kInvalidArgument, "no knob '" + flag + "'");
    for_each_knob<Model>([&](const auto& knob) {
      if (flag == knob.flag) status = knob.assign(config, text);
    });
    S4E_TRY_STATUS(status);
  }
  return config;
}

}  // namespace s4e::campaign
