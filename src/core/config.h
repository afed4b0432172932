// Typed configuration registry for the VTP_* environment knobs.
//
// Before this header, every knob was an ad-hoc core::EnvInt/EnvFlag/getenv
// call buried at its use site — no central list, no types, no help text.
// core::Config fixes the API: each knob is declared exactly once (in
// core/knobs.h) as a typed handle carrying its name, default, and help
// string; the handle self-registers so `vtp --knobs` can enumerate every
// option the build understands.
//
// Handles resolve the environment at *call time* with the parsing rules of
// core/env.h, so a test that setenv()s a knob sees the new value at once.
//
// Header-only, like env.h.
#pragma once

#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/env.h"

namespace vtp::core {

/// Process-wide knob catalogue. Registration happens from the constructors
/// of the inline knob handles in core/knobs.h during static initialization;
/// lookups (`vtp --knobs`) walk the sorted map.
class Config {
 public:
  struct KnobInfo {
    const char* name;
    const char* type;  ///< "flag", "bool", "int", "string"
    std::string def;   ///< default, as shown to the user
    const char* help;
    std::function<std::string()> current;  ///< env-resolved value, formatted

    bool overridden() const { return std::getenv(name) != nullptr; }
  };

  static Config& Instance() {
    static Config config;
    return config;
  }

  /// Idempotent by name: the first registration wins, so the inline knob
  /// handles may be instantiated from any number of translation units.
  void Register(KnobInfo info) { knobs_.emplace(info.name, std::move(info)); }

  /// All registered knobs, sorted by name.
  std::vector<const KnobInfo*> List() const {
    std::vector<const KnobInfo*> out;
    out.reserve(knobs_.size());
    for (const auto& [name, info] : knobs_) out.push_back(&info);
    return out;
  }

  const KnobInfo* Find(const std::string& name) const {
    const auto it = knobs_.find(name);
    return it == knobs_.end() ? nullptr : &it->second;
  }

 private:
  Config() = default;
  std::map<std::string, KnobInfo> knobs_;
};

/// Boolean knob that is false unless set ("1"/"true"/"on"), like VTP_FULL.
class FlagKnob {
 public:
  FlagKnob(const char* name, const char* help) : name_(name) {
    Config::Instance().Register(
        {name, "flag", "0", help, [this] { return Get() ? "1" : "0"; }});
  }

  bool Get() const { return EnvFlag(name_); }
  const char* name() const { return name_; }

 private:
  const char* name_;
};

/// Boolean knob with a declared default: unset -> default; "1"/"true"/"on"
/// -> true; "0"/"false"/"off" -> false; anything else -> default.
class BoolKnob {
 public:
  BoolKnob(const char* name, bool def, const char* help) : name_(name), def_(def) {
    Config::Instance().Register(
        {name, "bool", def ? "1" : "0", help, [this] { return Get() ? "1" : "0"; }});
  }

  bool Get() const {
    const char* env = std::getenv(name_);
    if (env == nullptr) return def_;
    if (std::strcmp(env, "1") == 0 || std::strcmp(env, "true") == 0 ||
        std::strcmp(env, "on") == 0) {
      return true;
    }
    if (std::strcmp(env, "0") == 0 || std::strcmp(env, "false") == 0 ||
        std::strcmp(env, "off") == 0) {
      return false;
    }
    return def_;
  }
  const char* name() const { return name_; }

 private:
  const char* name_;
  bool def_;
};

/// Integer knob; unparsable or out-of-range values fall back to the default
/// (EnvInt semantics, including the strict trailing-garbage/overflow checks).
/// `def_desc` overrides how the default is displayed when the numeric value
/// is a sentinel (e.g. "auto (one per hardware thread)").
class IntKnob {
 public:
  IntKnob(const char* name, int def, const char* help, const char* def_desc = nullptr)
      : name_(name), def_(def) {
    Config::Instance().Register({name, "int", def_desc != nullptr ? def_desc : std::to_string(def),
                                 help, [this] { return std::to_string(Get()); }});
  }

  int Get() const { return EnvInt(name_, def_); }
  const char* name() const { return name_; }

 private:
  const char* name_;
  int def_;
};

/// String knob; `def_desc` overrides how an empty/sentinel default prints.
class StringKnob {
 public:
  StringKnob(const char* name, const char* def, const char* help, const char* def_desc = nullptr)
      : name_(name), def_(def) {
    Config::Instance().Register(
        {name, "string", def_desc != nullptr ? def_desc : def, help, [this] { return Get(); }});
  }

  std::string Get() const { return EnvString(name_, def_); }
  const char* name() const { return name_; }

 private:
  const char* name_;
  const char* def_;
};

}  // namespace vtp::core
