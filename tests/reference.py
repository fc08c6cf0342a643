"""High-precision reference values for Model 1, shared by the tests.

`model1` forms each value from its definition in stdlib `decimal`, at DIGITS = 120

# the four sets of corpus [-12, 12] farthest from the reference while pi0 was normalized
# by a float solve of I - R: gamma_1, C(sigma) or eta were off by 3.7, 0.18, 1.6e-2 and 9.2e-3
SLOW_SWITCHING = [
    (527962.3175368304, 50406465.24787929, 5.786599240714527e-11, 8.634334099278625e-12),
    (6715754.253949405, 141675584551.73972, 7.814921683769449e-07, 1.8534109296012075e-09),
    (4154791708.89984, 805313496909.1765, 0.0008475828390711052, 1.2809658792652284e-05),
    (3720046678.7797217, 108605984602.22786, 5.4032172887814153e-11, 1.1304456357690151e-06)]
# full-range sets whose R Down->Down entry (lambda/mu)(alpha+mu)/(lambda+beta) rounds to 1;
# their rates span about 300 decades, so their reference takes FULL_RANGE_DIGITS: 600 digits
# agree with 1,200 to 1e-100 relative on all three, and 400 divide by 0 on the first
FULL_RANGE_DIGITS = 800
R_DOWN_DOWN_ONE = [
    (413144996.53554803, 3.122865155414661e+147, 1.7913480599226823e-151, 4.335403015718224e-98),
    (2.651540072118115e+82, 2.3707185766988563e+105, 6.148422245907005e-125, 5.54969880970418e+56),
    (3.48705386131297e-77, 1.6883427558262747e-34, 7.769981137272898e-146, 8.684916251596294e-150)]
significant digits, and not from the closed forms that uqtail evaluates:

- t1 > t2, the roots of lam^2 t^2 - lam (lam + mu + alpha + beta) t + mu (lam + beta),
  by the quadratic formula, and gamma_1 = 1/t2, gamma_2 = 1/t1;
- w = h(0, D), from the free kernel's Down row, and g = den/2 + 2 alpha beta/den;
- phi, the twisted phase chain's law, and d, the mean x step of the twisted rows;
- pi0, the null vector of level 0's balance pi0 (B1 + R A2 - I) = 0, normalized by
  pi0 (I - R)^-1 1 = 1 with (I - R)^-1 by Cramer's rule;
- escape(sigma) = A0 (1 - G~ 1) for the twisted first passage G~(sigma, U) =
  1 / (t2 h(0, sigma)), and eta = sum pi0 h(0, .) escape;
- C(sigma) = eta phi(sigma) / (d h(0, sigma));
- (w2, w3), the weights of pi(k) = pi0 R^k = w2 gamma_1^k + w3 gamma_2^k, from R's
  spectral projectors, with R's eigenvalues from its own trace and determinant.

The subtractions of these definitions lose up to 44 of the 120 digits on corpus
[-12, 12] (rates log-uniform on [1e-12, 1e12]): there every value agrees with a
400-digit evaluation to 5e-77 relative, as it does at the light loads the tests use
(lam down to 1e-305 against rates near 10).  Sets whose rates span several hundred
decades lose several hundred digits; their tests pass `digits`.  At p = 1 the tandem has
the same roots, w, g, phase shares and drift (per uniformized step, at its own C).
"""

from decimal import Decimal, localcontext

DIGITS = 120

# the four sets of corpus [-12, 12] farthest from the reference while pi0 was normalized
# by a float solve of I - R: gamma_1, C(sigma) or eta were off by 3.7, 0.18, 1.6e-2 and 9.2e-3
SLOW_SWITCHING = [
    (527962.3175368304, 50406465.24787929, 5.786599240714527e-11, 8.634334099278625e-12),
    (6715754.253949405, 141675584551.73972, 7.814921683769449e-07, 1.8534109296012075e-09),
    (4154791708.89984, 805313496909.1765, 0.0008475828390711052, 1.2809658792652284e-05),
    (3720046678.7797217, 108605984602.22786, 5.4032172887814153e-11, 1.1304456357690151e-06)]
# full-range sets whose R Down->Down entry (lambda/mu)(alpha+mu)/(lambda+beta) rounds to 1;
# their rates span about 300 decades, so their reference takes FULL_RANGE_DIGITS: 600 digits
# agree with 1,200 to 1e-100 relative on all three, and 400 divide by 0 on the first
FULL_RANGE_DIGITS = 800
R_DOWN_DOWN_ONE = [
    (413144996.53554803, 3.122865155414661e+147, 1.7913480599226823e-151, 4.335403015718224e-98),
    (2.651540072118115e+82, 2.3707185766988563e+105, 6.148422245907005e-125, 5.54969880970418e+56),
    (3.48705386131297e-77, 1.6883427558262747e-34, 7.769981137272898e-146, 8.684916251596294e-150)]


def model1(lam, mu, alpha, beta, C=None, digits=DIGITS):
    """Model 1's reference values at the float rates (lam, mu, alpha, beta) and C
    (default lam + mu + alpha + beta), as Decimals; pairs are (Up, Down)."""
    with localcontext() as ctx:
        ctx.prec = digits
        lam, mu, alpha, beta = (Decimal(float(v)) for v in (lam, mu, alpha, beta))
        C = lam + mu + alpha + beta if C is None else Decimal(float(C))
        b = lam + mu + alpha + beta
        root = (b * b - 4 * mu * (lam + beta)).sqrt()
        t1, t2 = (b + root) / (2 * lam), (b - root) / (2 * lam)
        den = lam + beta - mu - alpha + root
        w = beta / (lam + beta - lam * t2)   # h(0, D): the Down row of the free kernel
        h0 = (Decimal(1), w)
        # the twisted phase chain moves U -> D w.p. alpha w / C and D -> U w.p. beta / (w C)
        phi = (beta / (beta + alpha * w * w), alpha * w * w / (beta + alpha * w * w))
        # the twisted rows step x up by lam t2 / C in both phases, down by mu / (t2 C) in Up
        drift = (lam * t2 - mu * phi[0] / t2) / C
        r = ((lam / mu, lam * alpha / (mu * (lam + beta))),
             (lam / mu, lam * (alpha + mu) / (mu * (lam + beta))))
        # level 0's balance: the null vector of B1 + R A2 - I, normalized by Cramer's rule
        null = (beta / C + r[1][0] * mu / C, -((1 - (lam + alpha) / C) + r[0][0] * mu / C - 1))
        (i_uu, i_ud), (i_du, i_dd) = ((1 - r[0][0], -r[0][1]), (-r[1][0], 1 - r[1][1]))
        norm = (null[0] * (i_dd - i_ud) + null[1] * (i_uu - i_du)) / (i_uu * i_dd - i_ud * i_du)
        pi0 = tuple(v / norm for v in null)
        escape = tuple(lam * t2 / C * (1 - 1 / (t2 * h)) for h in h0)
        eta = sum(p * h * e for p, h, e in zip(pi0, h0, escape))
        trace, det = r[0][0] + r[1][1], r[0][0] * r[1][1] - r[0][1] * r[1][0]
        split = (trace * trace - 4 * det).sqrt()
        own, other = (trace + split) / 2, (trace - split) / 2
        w2, w3 = (((pi0[0] * (r[0][0] - o) + pi0[1] * r[1][0]) / (g - o),
                   (pi0[0] * r[0][1] + pi0[1] * (r[1][1] - o)) / (g - o))
                  for g, o in ((own, other), (other, own)))
        return {"t1": t1, "t2": t2, "gamma1": 1 / t2, "gamma2": 1 / t1, "w": w,
                "g": den / 2 + 2 * alpha * beta / den, "phi": phi, "drift": drift,
                "pi0": pi0, "escape": escape, "eta": eta,
                "prefactor": tuple(eta * p / (drift * h) for p, h in zip(phi, h0)),
                "w2": w2, "w3": w3}


def relative_error(value, exact) -> Decimal:
    """|value / exact - 1| for a float value against a Decimal reference."""
    return abs(Decimal(float(value)) / exact - 1)
