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

} // namespace profess
