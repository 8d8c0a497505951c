#include "common/key_value.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace profess
{

namespace
{

KeyValue
splitToken(const std::string &tok, const std::string &where)
{
    std::size_t eq = tok.find('=');
    fatal_if(eq == std::string::npos || eq == 0 ||
                 eq + 1 == tok.size(),
             "%s: expected key=value, got '%s'", where.c_str(),
             tok.c_str());
    return KeyValue{tok.substr(0, eq), tok.substr(eq + 1), where};
}

} // anonymous namespace

std::vector<std::string>
splitList(std::string_view s, char sep)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t c = std::min(s.find(sep, pos), s.size());
        if (c > pos)
            out.emplace_back(s.substr(pos, c - pos));
        pos = c + 1;
    }
    return out;
}

std::vector<std::vector<KeyValue>>
readKeyValueLines(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in.is_open(), "cannot open '%s'", path.c_str());
    std::vector<std::vector<KeyValue>> lines;
    std::string line;
    for (int lineno = 1; std::getline(in, line); ++lineno) {
        line.erase(std::min(line.find('#'), line.size()));
        std::istringstream words(line);
        std::string where = path + ":" + std::to_string(lineno);
        std::vector<KeyValue> tokens;
        for (std::string tok; words >> tok;)
            tokens.push_back(splitToken(tok, where));
        if (!tokens.empty())
            lines.push_back(std::move(tokens));
    }
    return lines;
}

std::vector<KeyValue>
keyValueArgs(int argc, char **argv)
{
    std::vector<KeyValue> out;
    for (int i = 1; i < argc; ++i)
        out.push_back(splitToken(argv[i], "command line"));
    return out;
}

std::optional<KeyValue>
flagValue(int argc, char **argv, int &i, std::string_view flag)
{
    std::string_view arg = argv[i];
    if (arg == flag) {
        fatal_if(i + 1 >= argc, "%s needs a value", argv[i]);
        return KeyValue{std::string(flag), argv[++i], "command line"};
    }
    if (flag.starts_with("--") && arg.size() > flag.size() &&
        arg.starts_with(flag) && arg[flag.size()] == '=') {
        return KeyValue{std::string(flag),
                        std::string(arg.substr(flag.size() + 1)),
                        "command line"};
    }
    return std::nullopt;
}

} // namespace profess
