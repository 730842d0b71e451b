"""QUADPACK's adaptive Gauss-Kronrod quadrature with epsilon extrapolation.

A port of the netlib Fortran of QAGS (``dqagse`` with the 21-point rule
``dqk21``) for a finite interval, with ``dqpsrt`` (the sorted error list)
and ``dqelg`` (Wynn's epsilon algorithm); Piessens, de Doncker-Kapenga,
Ueberhuber & Kahaner, *QUADPACK*, Springer 1983.

Statements and sums keep the Fortran order, so value and error estimate are
bit-identical to other faithful builds of QUADPACK (SciPy's ``quad`` is
one; ``tests/test_quadpack.py`` compares against it), also when
``f.pair(x1, x2)`` samples the symmetric pairs.  The work lists are
1-based, as in the Fortran; entry 0 is unused.
"""

from __future__ import annotations

import math
import sys

from .errors import PreconditionError

EPMACH = 2.0 ** -52
UFLOW = 2.2250738585072014e-308
OFLOW = sys.float_info.max

# The rule is (xgk, wgk, wg, order): the Kronrod abscissae (centre last) and
# weights, the Gauss weight at each abscissa (None off the Gauss nodes) and
# the order in which the Fortran visits the symmetric pairs.  The netlib
# constants are written as the shortest decimals of the same doubles.
QK21 = ((0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
         0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
         0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
         0.14887433898163122, 0.0),
        (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
         0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
         0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
         0.14773910490133849, 0.1494455540029169),
        (None, 0.06667134430868814, None, 0.1494513491505806, None,
         0.21908636251598204, None, 0.26926671930999635, None,
         0.29552422471475287, None),
        (1, 3, 5, 7, 9, 0, 2, 4, 6, 8))  # Gauss pairs first, then Kronrod


def _qk(g, a, b):
    """dqk21 on [a, b]: (result, abserr, resabs, resasc).  The centre is
    sampled alone, then each symmetric pair in the Fortran's order, lower
    node first, by one ``g.pair(x1, x2)`` if ``g`` has one."""
    xgk, wgk, wg, order = QK21
    n = len(xgk) - 1
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fc = g(centr)
    resg = 0.0 if wg[n] is None else wg[n] * fc
    resk = wgk[n] * fc
    resabs = abs(resk)
    fv1 = [0.0] * n
    fv2 = [0.0] * n
    pair = getattr(g, "pair", lambda x1, x2: (g(x1), g(x2)))
    for j in order:
        absc = hlgth * xgk[j]
        fval1, fval2 = fv1[j], fv2[j] = pair(centr - absc, centr + absc)
        fsum = fval1 + fval2
        if wg[j] is not None:
            resg = resg + wg[j] * fsum
        resk = resk + wgk[j] * fsum
        resabs = resabs + wgk[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = wgk[n] * abs(fc - reskh)
    for j in range(n):
        resasc = resasc + wgk[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep ``iord`` listing the error estimates in descending order;
    return the next interval to bisect as (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
        return iord[nrmax], elist[iord[nrmax]], nrmax
    errmax = elist[maxerr]
    while nrmax > 1 and not errmax <= elist[iord[nrmax - 1]]:
        iord[nrmax] = iord[nrmax - 1]
        nrmax -= 1
    jupbn = limit + 3 - last if last > limit // 2 + 2 else last
    errmin = elist[last]
    jbnd = jupbn - 1
    for i in range(nrmax + 1, jbnd + 1):  # insert errmax top-down
        isucc = iord[i]
        if errmax >= elist[isucc]:
            iord[i - 1] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):  # insert errmin bottom-up
                isucc = iord[k]
                if errmin < elist[isucc]:
                    iord[k + 1] = last
                    break
                iord[k + 1] = isucc
                k -= 1
            else:
                iord[i] = last
            return iord[nrmax], elist[iord[nrmax]], nrmax
        iord[i - 1] = isucc
    iord[jbnd], iord[jupbn] = maxerr, last
    return iord[nrmax], elist[iord[nrmax]], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: extrapolate ``epstab[1..n]``, updating it and ``res3la`` in
    place; return (n, nres, result, abserr)."""
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n < 3:
        return n, nres, result, max(abserr, 5.0 * EPMACH * abs(result))
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = OFLOW
    num = k1 = n
    for i in range(1, newelm + 1):
        e0, e1, e2 = epstab[k1 - 2], epstab[k1 - 1], epstab[k1 + 2]
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged
            return n, nres, e2, max(err2 + err3, 5.0 * EPMACH * abs(e2))
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1  # two elements nearly equal: drop part of the table
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        if not abs(ss * e1) > 1e-4:
            n = i + i - 1  # irregular behaviour in the table
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if not error > abserr:
            abserr, result = error, res
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):  # shift the table
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        epstab[1:n + 1] = epstab[num - n + 1:num + 1]
    if nres < 4:
        res3la[nres] = result
        abserr = OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, nres, result, max(abserr, 5.0 * EPMACH * abs(result))


def quad(f, a, b, *, epsabs, epsrel, limit):
    """``(value, abserr)`` of the integral of ``f`` over a finite [a, b].

    dqagse on at most ``limit`` subintervals.  As in QUADPACK, a run that stops on
    the limit, on roundoff or on divergence returns its best estimate.
    """
    if epsabs <= 0.0 and epsrel < max(50.0 * EPMACH, 5e-29):
        raise PreconditionError(f"quadrature tolerance epsabs={epsabs!r}, "
                                f"epsrel={epsrel!r} cannot be reached")
    if limit < 1 or not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise PreconditionError(f"quadrature needs finite a <= b and "
                                f"limit >= 1, got a={a!r}, b={b!r}, "
                                f"limit={limit!r}")

    def g(x):
        return float(f(x))
    if hasattr(f, "pair"):
        g.pair = lambda x1, x2: tuple(map(float, f.pair(x1, x2)))
    result, abserr, defabs, resabs = _qk(g, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if (abserr <= 100.0 * EPMACH * defabs and abserr > errbnd) or limit == 1 \
            or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr
    alist, blist = [0.0, a] + [0.0] * limit, [0.0, b] + [0.0] * limit
    rlist, elist = [0.0, result] + [0.0] * limit, [0.0, abserr] + [0.0] * limit
    iord = [0, 1] + [0] * limit
    rlist2, res3la = [0.0, result] + [0.0] * 51, [0.0] * 4
    errmax, maxerr, area, errsum, abserr = abserr, 1, result, abserr, OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = summed = False
    ier = False  # QUADPACK's ier != 0; its value is not reported
    ierro = iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1, b2 = alist[maxerr], blist[maxerr]
        a2 = b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        erlast = errmax
        area1, error1, _, defab1 = _qk(g, a1, b1)
        area2, error2, _, defab2 = _qk(g, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr], rlist[last] = area1, area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff2 >= 5:
            ierro = 3
        # roundoff (ier 2), the limit (ier 1) or a too small interval (ier 4)
        ier = (iroff1 + iroff2 >= 10 or iroff3 >= 20 or last == limit
               or max(abs(a1), abs(b2)) <= ((1.0 + 100.0 * EPMACH)
                                            * (abs(a2) + 1000.0 * UFLOW)))
        if error2 > error1:
            alist[maxerr], alist[last], blist[last] = a2, a1, b1
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr], elist[last] = error2, error1
        else:
            alist[last], blist[maxerr], blist[last] = a2, b1, b2
            elist[maxerr], elist[last] = error1, error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord,
                                       nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier:
            break
        if last == 2:
            small, erlarg, ertest = abs(b - a) * 0.375, errsum, errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the smallest interval is to be bisected
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # bisect the larger intervals first while any is left
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            large = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                large = abs(blist[maxerr] - alist[maxerr]) > small
                if large:
                    break
                nrmax += 1
            if large:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, nres, reseps, abseps = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        ier = ktmin > 5 and abserr < 1e-3 * errsum  # ier 5: no convergence
        if not abseps >= abserr:
            ktmin, abserr, result, correc = 0, abseps, reseps, erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum
    if not summed and abserr != OFLOW:
        if not ier and ierro == 0:
            return result, abserr
        if ierro == 3:
            abserr = abserr + correc
        if result != 0.0 and area != 0.0:
            summed = abserr / abs(result) > errsum / abs(area)
        else:
            summed = abserr > errsum
        if not summed:
            return result, abserr
    result = 0.0
    for k in range(1, last + 1):
        result = result + rlist[k]
    return result, errsum
