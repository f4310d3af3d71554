// analyzer-virtual-path: src/analysis/fixture_suppressed.cc
// Self-test fixture: matches in comments and string literals must not
// fire, and an inline lint-allow must suppress a real match.
#include <string>

// A comment mentioning std::mutex and rand() is documentation, not use.

std::string
describe()
{
    // The literal below names banned identifiers; literals are
    // stripped before matching.
    std::string text = "call rand() under std::mutex via time(NULL)";
    int sanctioned = rand();  // lint-allow: raw-rand (fixture: proves suppression)
    return text + std::to_string(sanctioned);
}
