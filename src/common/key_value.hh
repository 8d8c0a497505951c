/**
 * @file
 * The one key=value reader, shared by sweep specs, scenario files
 * and the command lines of examples, figure binaries and
 * profess_sweep: a line reader for '#'-commented files of
 * whitespace-separated key=value tokens, comma lists, and typed
 * values that must parse whole and fit their type.
 */

#ifndef PROFESS_COMMON_KEY_VALUE_HH
#define PROFESS_COMMON_KEY_VALUE_HH

#include <charconv>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

namespace profess
{

/** One key=value token and where it came from. */
struct KeyValue
{
    std::string key;
    std::string value;
    std::string where; ///< origin for messages, e.g. "file:line"
};

/**
 * Parse all of `text` as a T.  Integers are decimal without leading
 * zeros and must fit T (unsigned types take no sign); bools are 0 or
 * 1; doubles use std::from_chars syntax.
 *
 * @return false, leaving `out` unchanged, when `text` is anything
 *         else (empty, trailing characters, out of range).
 */
template <typename T>
bool
parseValue(std::string_view text, T &out)
{
    if constexpr (std::is_same_v<T, bool>) {
        if (text != "0" && text != "1")
            return false;
        out = text == "1";
        return true;
    } else {
        if constexpr (std::is_integral_v<T>) {
            // A leading zero is how C and the shell spell octal;
            // reading "010" as ten would misread it.
            std::string_view digits =
                text.substr(text.starts_with('-') ? 1 : 0);
            if (digits.size() > 1 && digits.front() == '0')
                return false;
        }
        T v{};
        const char *end = text.data() + text.size();
        auto [ptr, ec] = std::from_chars(text.data(), end, v);
        if (ec != std::errc{} || ptr != end)
            return false;
        out = v;
        return true;
    }
}

/** @return kv.value parsed as a T (parseValue); fatal, citing
 *  kv.where, when it does not parse. */
template <typename T>
T
valueAs(const KeyValue &kv)
{
    T v{};
    if (parseValue(kv.value, v))
        return v;
    std::string want;
    if constexpr (std::is_same_v<T, bool>)
        want = "0 or 1";
    else if constexpr (std::is_floating_point_v<T>)
        want = "a number";
    else if constexpr (std::is_unsigned_v<T>)
        want = "a non-negative integer below 2^" +
               std::to_string(std::numeric_limits<T>::digits);
    else
        want = "an integer of at most " +
               std::to_string(std::numeric_limits<T>::digits + 1) +
               " bits";
    fatal("%s: bad value '%s' for '%s' (needs %s)", kv.where.c_str(),
          kv.value.c_str(), kv.key.c_str(), want.c_str());
}

/** @return the non-empty pieces of `s` between `sep`s ("a,,b" is
 *  {"a", "b"}). */
std::vector<std::string> splitList(std::string_view s, char sep);

/**
 * Read `path` ('#' starts a comment) as whitespace-separated
 * key=value tokens, each tagged "path:line".
 *
 * @return the tokens of every line that has any, line by line;
 *         fatal on an unreadable file or a token that is not
 *         key=value with a non-empty key and value.
 */
std::vector<std::vector<KeyValue>>
readKeyValueLines(const std::string &path);

/** @return argv[1..] as key=value tokens tagged "command line";
 *  fatal on any other token. */
std::vector<KeyValue> keyValueArgs(int argc, char **argv);

/**
 * Match argv[i] against the valued command-line flag `flag`:
 * `flag VALUE`, or `flag=VALUE` for a flag spelled with "--".  A
 * separate VALUE is consumed (i advances past it); a missing one is
 * fatal.
 *
 * @return the value, keyed by `flag` and tagged "command line", or
 *         std::nullopt when argv[i] is some other argument.
 */
std::optional<KeyValue> flagValue(int argc, char **argv, int &i,
                                  std::string_view flag);

} // namespace profess

#endif // PROFESS_COMMON_KEY_VALUE_HH
