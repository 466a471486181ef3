#include "channel/error_model.hh"

#include <cmath>

namespace dnastore {

ErrorModel
ErrorModel::uniform(double p)
{
    return { p / 3.0, p / 3.0, p / 3.0 };
}

ErrorModel
ErrorModel::substitutionOnly(double p)
{
    return { 0.0, 0.0, p };
}

ErrorModel
ErrorModel::indelOnly(double p)
{
    return { p / 2.0, p / 2.0, 0.0 };
}

ErrorModel
ErrorModel::custom(double ins, double del, double sub)
{
    return { ins, del, sub };
}

ErrorModel
ErrorModel::ngs(double p)
{
    // ~27% indels (midpoint of the 25-30% reported in the paper).
    const double indel = 0.27 * p;
    return { indel / 2.0, indel / 2.0, p - indel };
}

ErrorModel
ErrorModel::nanopore(double p)
{
    const double indel = 0.60 * p;
    return { indel / 2.0, indel / 2.0, p - indel };
}

const char *
ErrorModel::check() const
{
    if (!std::isfinite(insertion))
        return "ins-rate must be finite";
    if (!std::isfinite(deletion))
        return "del-rate must be finite";
    if (!std::isfinite(substitution))
        return "sub-rate must be finite";
    if (insertion < 0.0)
        return "ins-rate must be >= 0";
    if (deletion < 0.0)
        return "del-rate must be >= 0";
    if (substitution < 0.0)
        return "sub-rate must be >= 0";
    if (total() > 1.0)
        return "error rates must total at most 1";
    return nullptr;
}

} // namespace dnastore
