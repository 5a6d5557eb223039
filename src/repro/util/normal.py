"""The standard normal CDF ``ndtr`` and its inverse ``ndtri``.

Ports of Cephes' ``ndtr.c`` (with the parts of its own ``erf`` and
``erfc`` that ``ndtr`` reaches) and ``ndtri.c``, the code
``scipy.special.ndtr`` and ``ndtri`` run: scipy's ``xsf`` library ships
it unchanged.  Each port keeps Cephes' coefficient tables and its order
of operations (Horner ``polevl``/``p1evl`` steps, ``y + y*(y2*P/Q)``
then ``* s2pi``, ``sqrt(-2*log(y))``, ``x - log(x)/x``, ``z*P/Q``), and
calls libm through ``math.exp``, ``math.log`` and ``math.sqrt``, so it
returns scipy's bits.  ``tests/test_normal.py`` compares them by
``float.hex`` and ``tobytes``, branch by branch.

The threshold draws of every study and fleet run go through these
kernels, so the stored records depend on their bits and not on whichever
scipy release is installed.  Importing ``scipy.special`` would also add
about 0.16 s to each ``uucs`` start (perfbench ``setup_s`` on a 2-vCPU
Xeon VM), most of it numpy modules that scipy's array-API layer pulls
in.

``ndtr`` and ``ndtri`` take and return Python floats: the per-draw
paths call them once per threshold, so each Horner step is written out
rather than looped.  ``ndtri_array`` is ``ndtri`` over a float array,
for the batch engine.  numpy's ``+ - * /`` and ``np.sqrt`` are correctly
rounded, as the scalar operations are, but its vectorized ``log`` is
not libm's (it differs in the last bit on some inputs), so logs are
taken with ``math.log`` element by element.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "ndtri", "ndtri_array"]

#: ``erfc``'s underflow bound, Cephes' ``MAXLOG`` (``log(DBL_MAX)``).
_MAXLOG = 7.09782712893383996843e2
#: ``M_SQRT1_2``.
_SQRT1_2 = 7.07106781186547524401e-1
#: ``ndtri``'s branch point ``exp(-2)``, and the point above which it
#: works on ``1 - y``.
_EXP_M2 = 0.13533528323661269189
_UPPER = 1.0 - _EXP_M2
#: ``sqrt(2 pi)``.
_S2PI = 2.50662827463100050242e0


def _erf(x: float) -> float:
    """Cephes ``erf`` for ``|x| < 1``, the only arguments ``ndtr`` gives it."""
    if x < 0.0:
        return -_erf(-x)
    z = x * x
    # x * polevl(z, T, 4) / p1evl(z, U, 5)
    return x * ((((9.60497373987051638749e0 * z
                   + 9.00260197203842689217e1) * z
                  + 2.23200534594684319226e3) * z
                 + 7.00332514112805075473e3) * z
                + 5.55923013010394962768e4) / (((((z
                   + 3.35617141647503099647e1) * z
                  + 5.21357949780152679795e2) * z
                 + 4.59432382970980127987e3) * z
                + 2.26290000613890934246e4) * z
               + 4.92673942608635921086e4)


def _erfc(x: float) -> float:
    """Cephes ``erfc`` for ``x >= 1``, the only arguments ``ndtr`` gives it.

    Cephes returns 0 on underflow, which ``(z * p) / q`` already is.
    """
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if x < 8.0:
        # polevl(x, P, 8), p1evl(x, Q, 8)
        p = ((((((((2.46196981473530512524e-10 * x
                    + 5.64189564831068821977e-1) * x
                   + 7.46321056442269912687e0) * x
                  + 4.86371970985681366614e1) * x
                 + 1.96520832956077098242e2) * x
                + 5.26445194995477358631e2) * x
               + 9.34528527171957607540e2) * x
              + 1.02755188689515710272e3) * x
             + 5.57535335369399327526e2)
        q = ((((((((x
                    + 1.32281951154744992508e1) * x
                   + 8.67072140885989742329e1) * x
                  + 3.54937778887819891062e2) * x
                 + 9.75708501743205489753e2) * x
                + 1.82390916687909736289e3) * x
               + 2.24633760818710981792e3) * x
              + 1.65666309194161350182e3) * x
             + 5.57535340817727675546e2)
    else:
        # polevl(x, R, 5), p1evl(x, S, 6)
        p = (((((5.64189583547755073984e-1 * x
                 + 1.27536670759978104416e0) * x
                + 5.01905042251180477414e0) * x
               + 6.16021097993053585195e0) * x
              + 7.40974269950448939160e0) * x
             + 2.97886665372100240670e0)
        q = ((((((x
                  + 2.26052863220117276590e0) * x
                 + 9.39603524938001434673e0) * x
                + 1.20489539808096656605e1) * x
               + 1.70814450747565897222e1) * x
              + 9.60896809063285878198e0) * x
             + 3.36907645100081516050e0)
    return (z * p) / q


def ndtr(a: float) -> float:
    """Standard normal CDF at ``a``: scipy's ``ndtr``, bit for bit."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < 1.0:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    if x > 0:
        y = 1.0 - y
    return y


def _central(y):
    """``ndtri`` for ``exp(-2) < y0 < 1 - exp(-2)``, given ``y = y0 - 0.5``.

    Takes a float or a float array.
    """
    y2 = y * y
    # y + y * (y2 * polevl(y2, P0, 4) / p1evl(y2, Q0, 8)), then * s2pi
    return (y + y * (y2 * ((((-5.99633501014107895267e1 * y2
                              + 9.80010754185999661536e1) * y2
                             - 5.66762857469070293439e1) * y2
                            + 1.39312609387279679503e1) * y2
                           - 1.23916583867381258016e0) / ((((((((y2
                              + 1.95448858338141759834e0) * y2
                             + 4.67627912898881538453e0) * y2
                            + 8.63602421390890590575e1) * y2
                           - 2.25462687854119370527e2) * y2
                          + 2.00260212380060660359e2) * y2
                         - 8.20372256168333339912e1) * y2
                        + 1.59056225126211695515e1) * y2
                       - 1.18331621121330003142e0))) * _S2PI


def _tail_near(z):
    """``ndtri``'s tail term ``x1`` for ``2 <= x < 8``, given ``z = 1/x``.

    Takes a float or a float array.
    """
    # z * polevl(z, P1, 8) / p1evl(z, Q1, 8)
    return z * ((((((((4.05544892305962419923e0 * z
                       + 3.15251094599893866154e1) * z
                      + 5.71628192246421288162e1) * z
                     + 4.40805073893200834700e1) * z
                    + 1.46849561928858024014e1) * z
                   + 2.18663306850790267539e0) * z
                  - 1.40256079171354495875e-1) * z
                 - 3.50424626827848203418e-2) * z
                - 8.57456785154685413611e-4) / ((((((((z
                   + 1.57799883256466749731e1) * z
                  + 4.53907635128879210584e1) * z
                 + 4.13172038254672030440e1) * z
                + 1.50425385692907503408e1) * z
               + 2.50464946208309415979e0) * z
              - 1.42182922854787788574e-1) * z
             - 3.80806407691578277194e-2) * z
            - 9.33259480895457427372e-4)


def _tail_far(z):
    """``ndtri``'s tail term ``x1`` for ``x >= 8``, given ``z = 1/x``.

    Takes a float or a float array.
    """
    # z * polevl(z, P2, 8) / p1evl(z, Q2, 8)
    return z * ((((((((3.23774891776946035970e0 * z
                       + 6.91522889068984211695e0) * z
                      + 3.93881025292474443415e0) * z
                     + 1.33303460815807542389e0) * z
                    + 2.01485389549179081538e-1) * z
                   + 1.23716634817820021358e-2) * z
                  + 3.01581553508235416007e-4) * z
                 + 2.65806974686737550832e-6) * z
                + 6.23974539184983293730e-9) / ((((((((z
                   + 6.02427039364742014255e0) * z
                  + 3.67983563856160859403e0) * z
                 + 1.37702099489081330271e0) * z
                + 2.16236993594496635890e-1) * z
               + 1.34204006088543189037e-2) * z
              + 3.28014464682127739104e-4) * z
             + 2.89247864745380683936e-6) * z
            + 6.79019408009981274425e-9)


def ndtri(y0: float) -> float:
    """Inverse of the standard normal CDF: scipy's ``ndtri``, bit for bit.

    ``-inf`` at 0, ``inf`` at 1, NaN outside [0, 1].
    """
    # Cephes' central branch, tested first because most draws take it.
    # Above 1 - exp(-2), 1 - y0 is below exp(-2), so no y0 there
    # reaches it; Cephes tests ``1 - y0`` anyway.
    if _EXP_M2 < y0 <= _UPPER:
        return _central(y0 - 0.5)
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0:
        return math.nan
    # The tails; NaN arrives here too, as in Cephes.
    upper = y0 > _UPPER
    x = math.sqrt(-2.0 * math.log(1.0 - y0 if upper else y0))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    x = x0 - (_tail_near(z) if x < 8.0 else _tail_far(z))
    return x if upper else -x


def _log(a: np.ndarray) -> np.ndarray:
    """libm's ``log`` of each element (see the module docstring)."""
    return np.fromiter(map(math.log, a.tolist()), float, a.size)


def ndtri_array(y0) -> np.ndarray:
    """:func:`ndtri` of each element of a float array, the same bits."""
    y0 = np.asarray(y0, dtype=float)
    x = np.full(y0.shape, math.nan)
    x[y0 == 0.0] = -math.inf
    x[y0 == 1.0] = math.inf
    upper = y0 > _UPPER
    y = np.where(upper, 1.0 - y0, y0)
    central = y > _EXP_M2
    x[central] = _central(y[central] - 0.5)
    # Everything else inside (0, 1), and NaN, as in the scalar form.
    tail = ~(central | (y0 <= 0.0) | (y0 >= 1.0))
    if tail.any():
        t = np.sqrt(-2.0 * _log(y[tail]))
        x0 = t - _log(t) / t
        z = 1.0 / t
        near = t < 8.0
        x1 = np.empty_like(z)
        x1[near] = _tail_near(z[near])
        x1[~near] = _tail_far(z[~near])
        t = x0 - x1
        x[tail] = np.where(upper[tail], t, -t)
    return x
