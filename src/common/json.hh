/**
 * @file
 * Minimal JSON: a recursive-descent parser into an ordered Value tree
 * plus the escape helper every hand-rolled writer in this repo needs.
 * Built for small, trusted documents (e.g. reading back acpsim's
 * --json output), not for bulk data — result payloads are stored in
 * the result-codec text format instead, which round-trips doubles
 * bit-exactly.
 *
 * Numbers keep their original token text, so integer fields (seeds,
 * sizes) survive the trip without passing through a double: use
 * asU64() for anything that must stay exact.
 */

#ifndef ACP_COMMON_JSON_HH
#define ACP_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace acp::json
{

/** One parsed JSON value; objects preserve member order. */
struct Value
{
    enum class Type
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    Type type = Type::kNull;
    bool boolean = false;
    /** Numbers: the raw token ("42", "-1.5e3") for exact re-reads. */
    std::string numberText;
    std::string str;
    std::vector<Value> items;
    std::vector<std::pair<std::string, Value>> members;

    bool isNull() const { return type == Type::kNull; }
    bool isBool() const { return type == Type::kBool; }
    bool isNumber() const { return type == Type::kNumber; }
    bool isString() const { return type == Type::kString; }
    bool isArray() const { return type == Type::kArray; }
    bool isObject() const { return type == Type::kObject; }

    /** Object member lookup (first match); null when absent. */
    const Value *find(const std::string &key) const;

    /** Numeric accessors; fall back when the value isn't a number. */
    std::uint64_t asU64(std::uint64_t fallback = 0) const;
    double asDouble(double fallback = 0.0) const;
    bool asBool(bool fallback = false) const;
};

/**
 * Parse one JSON document. Returns false (and fills @p err when given)
 * on malformed input or trailing garbage.
 */
bool parse(const std::string &text, Value &out, std::string *err = nullptr);

/** JSON string-escape @p text (no surrounding quotes). */
std::string escape(const std::string &text);

/** Convenience: escape and quote. */
std::string quote(const std::string &text);

} // namespace acp::json

#endif // ACP_COMMON_JSON_HH
