#ifndef RE2XOLAP_UTIL_FUNCTION_REF_H_
#define RE2XOLAP_UTIL_FUNCTION_REF_H_

#include <type_traits>
#include <utility>

namespace re2xolap::util {

/// Non-owning, non-allocating reference to a callable of signature
/// `R(Args...)`. The referenced callable must outlive every call through
/// the reference: pass lambdas inline, never keep a FunctionRef beyond
/// the call it was passed to.
template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, FunctionRef>>>
  FunctionRef(const F& f)  // NOLINT(runtime/explicit)
      : obj_(&f), fn_([](const void* obj, Args... args) -> R {
          return (*static_cast<const F*>(obj))(std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return fn_(obj_, std::forward<Args>(args)...);
  }

 private:
  const void* obj_;
  R (*fn_)(const void*, Args...);
};

}  // namespace re2xolap::util

#endif  // RE2XOLAP_UTIL_FUNCTION_REF_H_
