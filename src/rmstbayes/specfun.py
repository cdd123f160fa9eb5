"""Special functions used by the likelihood and the closed-form
restricted-mean formulas.

The incomplete gamma, the incomplete beta and the normal tails apply
elementwise over numpy arrays and to scalars (a float for scalar input).
Their series and the gamma's continued fraction run on one live-set loop,
``_converge``, which writes each element at its own convergence and shrinks
its arrays only when a step leaves half or fewer live.  The normal tails,
numpy throughout, rest on one piecewise-polynomial erfcx(a) = e^(a^2)
erfc(a) and never form e^(-x^2/2) from a rounded x^2.  ``math.lgamma``
(through ``_elementwise``) runs only on the elements whose value uses it.
Numpy is the one dependency; all functions are pure and thread-safe.

Conventions: the incomplete gamma and incomplete beta integrals are
*non-regularized*, i.e. the raw integrals, times e^L for a trailing log
factor L (default 0):

    lower_incomplete_gamma(z, a, L)             = e^L int_0^z t^(a-1) e^(-t) dt
    incomplete_beta_compl(one_minus_z, a, b, L) = e^L int_0^z t^(a-1) (1-t)^(b-1) dt

L joins the exponent of the front each expansion already forms, before its
one exp, so a caller's prefactor that overflows never meets an integral that
underflows.  The gamma is the series DLMF 8.7.1 below z = a + 1 and a
continued fraction above.  The beta is two series with positive fronts, and
no continued fraction: DLMF 8.17.8 from t = 0, and the binomial series in
1 - t near t = 1, over a span short enough that its alternating terms cancel
little; past the bulk the symmetry DLMF 8.17.4 may swap a and b.  The beta
integral takes its upper limit as the complement 1 - z, which the
log-logistic RMST knows to full precision as a survival value.  It supports
b <= 0 as long as z < 1 (the singularity at t=1 is then excluded from the
integration range).
"""

from __future__ import annotations

import math
import sys

import numpy as np

_EPS = 1e-16
_MAX_ITER = 1000
_SQRT_HALF = math.sqrt(0.5)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_TINY = 1e-300  # the modified-Lentz floor
_TAIL_SPAN = 4.0  # the beta's tail stops at s = _TAIL_SPAN / |a - 1|, losing <= e^(2 _TAIL_SPAN)


def _elementwise(fn, x) -> np.ndarray:
    """The scalar ``fn`` at each element of ``x``, as a float array of its
    shape."""
    x = np.asarray(x)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _float_if_scalar(x):
    return x if np.ndim(x) else float(x)


# erfcx on a >= 0 in the variable u = 64 / (1 + a), which maps a in [0, 63]
# onto [1, 64] and nearly straightens erfcx's 1/(a sqrt(pi)) decay.  Each
# interval j, two lines below, holds the degree-7 Chebyshev interpolant of
# erfcx on u in [j, j+1] as the coefficients of 1, t, ..., t^7 with t = u - j,
# fitted with mpmath at 40 digits (tests/test_normal_tail.py refits them and
# compares).  Interval 0, a > 63, is unused: a continued fraction serves
# there.  The array is stored (8, 64), so that gathering intervals gives one
# contiguous row per power of t.
_ERFCX_ROWS = 64
_ERFCX_COEFS = np.array((
    0.0, 0.0, 0.0, 0.0,
    0.0, 0.0, 0.0, 0.0,
    0.008954262474070737, 0.009094103206385666, 0.00014086244040078066, 1.0022538095957608e-06,
    -2.0115583502779268e-08, -6.609728051526788e-10, 6.874678033123552e-13, 4.3553778968138207e-13,
    0.018190209599233478, 0.009378751088591566, 0.0001437419180590487, 9.152107432500028e-07,
    -2.3394884589135044e-08, -6.476803584730243e-10, 3.7513136947223395e-12, 4.51206098320353e-13,
    0.027713593778264912, 0.009668883764665577, 0.00014634076992297134, 8.152452177953067e-07,
    -2.6561216755921618e-08, -6.157139049257147e-10, 6.9261281790556284e-12, 4.390420028365152e-13,
    0.03752960638850577, 0.00996390176135838, 0.0001486210942488256, 7.029970941237525e-07,
    -2.9520520487939135e-08, -5.649928940723229e-10, 1.0015142122305828e-11, 3.984687030196866e-13,
    0.04764280216610733, 0.01026313209697205, 0.00015054747107451152, 5.794793216741065e-07,
    -3.218130521296184e-08, -4.966248617010778e-10, 1.2817612273604682e-11, 3.3231122253920985e-13,
    0.05805702854869541, 0.010565834347972704, 0.00015208805420250442, 4.4605582130747555e-07,
    -3.446053010764024e-08, -4.128584396845241e-10, 1.5153002221659187e-11, 2.4635227415305223e-13,
    0.06877536214870274, 0.01087120881007139, 0.00015321556236988577, 3.043967828470176e-07,
    -3.628890284268647e-08, -3.169013487393149e-10, 1.6881927513328027e-11, 1.4834304378357722e-13,
    0.07980005432915294, 0.011178406487371456, 0.00015390810663199476, 1.564149719453376e-07,
    -3.761498882183893e-08, -2.126338616173363e-10, 1.7919997131815033e-11, 4.6745442763899904e-14,
    0.09113248752847239, 0.011486540530273792, 0.00015414980505782332, 4.188698178592164e-09,
    -3.840772421351105e-08, -1.0426557769330437e-10, 1.8242685466983385e-11, -5.048472129517177e-14,
    0.1027731435587046, 0.011794698663361868, 0.00015393115473128215, -1.5012178183631867e-07,
    -3.86571824143346e-08, 4.0118618843575054e-12, 1.788158134299297e-11, -1.3683268618301969e-13,
    0.1147215846195901, 0.012101956105140164, 0.00015324915175998663, -3.0435756200781934e-07,
    -3.837369309083523e-08, 1.0833046514498613e-10, 1.6914061043431365e-11, -2.0775815863431104e-13,
    0.12697644727027194, 0.012407388482884085, 0.000152107169567898, -4.564380287371223e-07,
    -3.758560632733085e-08, 2.0537896383287034e-10, 1.5449256110189136e-11, -2.6082753356484626e-13,
    0.13953544911965624, 0.01271008428327289, 0.00015051462189466156, -6.04426813951763e-07,
    -3.633610648245401e-08, 2.925493533222326e-10, 1.361315812299376e-11, -2.9552830523333074e-13,
    0.15239540756777034, 0.013009156444551428, 0.0001484864482985741, -7.465838295422847e-07,
    -3.4679510245646986e-08, 3.6799823162717004e-10, 1.1535093073834932e-11, -3.1288506975664283e-13,
    0.165552269576501, 0.013303752778630485, 0.00014604246618647352, -8.814021376937488e-07,
    -3.267744741455602e-08, 4.306351625158259e-10, 9.33694432039969e-12, -3.149937089584258e-13,
    0.17900115118138996, 0.013593065001793225, 0.00014320663487972724, -1.0076298599342457e-06,
    -3.0395245189020124e-08, 4.80056147775477e-10, 7.125678646432943e-12, -3.0456465512711613e-13,
    0.19273638527983505, 0.013876336241894998, 0.00014000627487951677, -1.1242784221404256e-06,
    -2.7898741216095483e-08, 5.164417573521849e-10, 4.989092801965792e-12, -2.8453272900685734e-13,
    0.20675157614059253, 0.014152866971574387, 0.00013647128044452867, -1.2306191418503696e-06,
    -2.5251656126958115e-08, 5.404378050410384e-10, 2.9942988980786e-12, -2.5776027634143615e-13,
    0.2210396590649878, 0.014422019386763912, 0.0001326333569617571, -1.3261705188848344e-06,
    -2.2513575025565273e-08, 5.530330381181865e-10, 1.1882849491128992e-12, -2.2683724334227465e-13,
    0.23559296367861404, 0.014683220305537741, 0.00012852530734601368, -1.410678656832707e-06,
    -1.9738525127779195e-08, 5.554442704487935e-10, -4.001338679161675e-13, -1.9396745992825953e-13,
    0.250403279429166, 0.014935962703621568, 0.00012418038459213382, -1.4840931007678399e-06,
    -1.69740944911173e-08, 5.49015516991771e-10, -1.7575788699283616e-12, -1.609234904476199e-13,
    0.26546192199728147, 0.015179806030531246, 0.0001196317211349926, -1.5465401022408578e-06,
    -1.4261012451640648e-08, 5.351344265338895e-10, -2.883066180919775e-12, -1.2905084477720277e-13,
    0.28075979947995533, 0.015414375465915111, 0.00011491184014178748, -1.5982949810100809e-06,
    -1.1633102423571026e-08, 5.151668321842251e-10, -3.785003682961144e-12, -9.930401149485152e-14,
    0.2962874773692113, 0.015639360281274998, 0.00011005224939212479, -1.6397548936690539e-06,
    -9.117518165212285e-09, 4.904085391987524e-10, -4.478447312276511e-12, -7.230000110759072e-14,
    0.3120352415133244, 0.015854511469971515, 0.00010508311499253724, -1.671412976460602e-06,
    -6.735181826589873e-09, 4.6205244104501013e-10, -4.982737223934807e-12, -4.837872570889836e-14,
    0.3279931584071515, 0.016059638800327052, 0.00010003300973962367, -1.693834523957327e-06,
    -4.501353074075303e-09, 4.311685509923095e-10, -5.319559902464649e-12, -2.7662919737380212e-14,
    0.34415113230716243, 0.016254607434553904, 9.492872936052527e-05, -1.7076356072633428e-06,
    -2.4262710868337923e-09, 3.9869440940636685e-10, -5.511431601852614e-12, -1.011310550453459e-14,
    0.36049895880237137, 0.0164393342417015, 8.979516897248524e-05, -1.7134643277202627e-06,
    -5.158236925970376e-10, 3.654334461169841e-10, -5.580567401947164e-12, 4.424761986618759e-15,
    0.3770263745927513, 0.016613783917083347, 8.46552517660629e-05, -1.7119847425799594e-06,
    1.2277906049106935e-09, 3.320591391056437e-10, -5.548083940683334e-12, 1.6179831590816964e-14,
    0.39372310333117594, 0.016777965004670613, 7.95299019918822e-05, -1.7038633826347056e-06,
    2.805431969906828e-09, 2.9912313912099324e-10, -5.4334781207856324e-12, 2.5424952828120094e-14,
    0.4105788974736029, 0.01693192590342716, 7.443805469895956e-05, -1.6897582018974591e-06,
    4.220435922087687e-09, 2.6706587269342627e-10, -5.254325133275336e-12, 3.245263317646506e-14,
    0.427583576155807, 0.017075750923993663, 6.939669523417096e-05, -1.6703097493027775e-06,
    5.4780867276760445e-09, 2.3622846086952103e-10, -5.026144174789589e-12, 3.7557367805687265e-14,
    0.44472705917461214, 0.01720955644880935, 6.442092218779302e-05, -1.6461343255881313e-06,
    6.585151780211948e-09, 2.0686507984533484e-10, -4.762387240475753e-12, 4.102326131926203e-14,
    0.4619993971985792, 0.017333487236853535, 5.952402819819946e-05, -1.6178188792541247e-06,
    7.549477519648248e-09, 1.7915513473656704e-10, -4.474513989866728e-12, 4.3115891206284e-14,
    0.47939079836895293, 0.01744771290375265, 5.471759376463538e-05, -1.5859173988921857e-06,
    8.379644812768015e-09, 1.5321481781737608e-10, -4.1721230624800935e-12, 4.407746185810412e-14,
    0.4968916514778029, 0.01755242459901439, 5.0011589928801704e-05, -1.5509485712037146e-06,
    9.084679985653789e-09, 1.2910778050444976e-10, -3.863116888236051e-12, 4.412442930324565e-14,
    0.5144925459281436, 0.017647831894547397, 4.5414486352774964e-05, -1.5133944915485616e-06,
    9.673816660950701e-09, 1.0685476906672614e-10, -3.553882776480786e-12, 4.344691635478025e-14,
    0.5321842886917133, 0.01773415989229962, 4.0933361929933624e-05, -1.4737002344294012e-06,
    1.0156303037002886e-08, 8.644216323507276e-11, -3.2494778232876824e-12, 4.220937127186982e-14,
    0.5499579184852463, 0.01781164655367776, 3.6574015610732446e-05, -1.4322741131484216e-06,
    1.0541249109581958e-08, 6.782942032756784e-11, -2.9538089958101696e-12, 4.055204259781968e-14,
    0.567804717386587, 0.017880540249264328, 3.234107560460815e-05, -1.3894884796858324e-06,
    1.0837508464670887e-08, 5.095547052010321e-11, -2.669802733695488e-12, 3.85929452587574e-14,
    0.585716220108809, 0.01794109752409703, 2.8238105534456177e-05, -1.3456809367777075e-06,
    1.1053589572447667e-08, 3.574413614534224e-11, -2.3995606721088514e-12, 3.64300777655623e-14,
    0.6036842211444742, 0.017993581071292224, 2.4267706474541543e-05, -1.3011558536617445e-06,
    1.1197591919558774e-08, 2.2108663326299392e-11, -2.1444997630579445e-12, 3.414371853295162e-14,
    0.6217007799839775, 0.01803825790496332, 2.0431614101228848e-05, -1.2561860946996584e-06,
    1.1277162778137583e-08, 9.95546105260074e-12, -1.9054762678530165e-12, 3.1798682802511163e-14,
    0.639758224602192, 0.01807539772209983, 1.673079043403741e-05, -1.2110148859336148e-06,
    1.1299470889325731e-08, -8.128564618572251e-13, -1.6828939166468327e-12, 2.944646262625988e-14,
    0.6578491533968445, 0.018105271442238138, 1.316550984797442e-05, -1.1658577585733183e-06,
    1.1271193811098318e-08, -1.0295031662945233e-11, -1.4767970685330124e-12, 2.7127203029325392e-14,
    0.6759664357506211, 0.01812814991328756, 9.735439202518976e-06, -1.1209045205047074e-06,
    1.1198516128437322e-08, -1.8589243259648304e-11, -1.2869500296682878e-12, 2.4871489849553215e-14,
    0.6941032113772555, 0.01814430277170178, 6.439712063392865e-06, -1.0763212172778105e-06,
    1.1087136138291472e-08, -2.5791624461775005e-11, -1.1129038551486652e-12, 2.2701940622461714e-14,
    0.7122528886000578, 0.01815399744524465, 3.2769970953265146e-06, -1.0322520528175272e-06,
    1.0942278996998702e-08, -3.199514888772925e-11, -9.54052018314483e-13, 2.0634600739967715e-14,
    0.7304091416996953, 0.01815749828683722, 2.455607819123372e-07, -9.888212474683485e-07,
    1.0768714651992549e-08, -3.728882142351353e-11, -8.096763137121065e-13, 1.868015419048424e-14,
    0.7485659074567018, 0.018155065828345845, -2.656675313657548e-06, -9.461348170965532e-07,
    1.057077917304098e-08, -4.1757119310108135e-11, -6.789842934365629e-13, 1.6844962472709174e-14,
    0.7667173810032768, 0.018146956143642343, -5.432082492123357e-06, -9.042822619907127e-07,
    1.0352398352860734e-08, -4.5479636246131815e-11, -5.611394404707533e-13, 1.5131947541210697e-14,
    0.7848580110885377, 0.01813342031080644, -8.083277783662597e-06, -8.633381583733524e-07,
    1.0117112665516885e-08, -4.853088918017718e-11, -4.552851709643049e-13, 1.3541335487545853e-14,
    0.8029824948515422, 0.018114703963923288, -1.0613081436591947e-05, -8.233636486009744e-07,
    9.868102856850993e-09, -5.098025366824177e-11, -3.605636400261491e-13, 1.2071277540456282e-14,
    0.8210857721871544, 0.018091046925535575, -1.3024478722749255e-05, -7.844078287103404e-07,
    9.60821559776612e-09, -5.289199917188088e-11, -2.7613020924193037e-13, 1.0718364221409713e-14,
    0.8391630197811967, 0.018062682911424585, -1.532058575215388e-05, -7.465090339759667e-07,
    9.33998876199999e-09, -5.432540049095289e-11, -2.0116432311449902e-13, 9.478047365275522e-15,
    0.8572096448833069, 0.018029839300005755, -1.7504618993941482e-05, -7.096960246736238e-07,
    9.065675998355136e-09, -5.5334905700931867e-11, -1.3487743858258564e-13, 8.344983387841581e-15,
    0.8752212788785085, 0.017992736959222468, -1.9579868208947044e-05, -6.739890753808768e-07,
    8.787270356311036e-09, -5.5970344550605013e-11, -7.651855808414668e-14, 7.313309776276657e-15,
    0.8931937707116775, 0.017951590124400212, -2.154967251059701e-05, -6.394009719601468e-07,
    8.506526796326336e-09, -5.627716432919488e-11, -2.5377832819870835e-14, 6.376865379440091e-15,
    0.9111231802128258, 0.017906606321076872, -2.3417399284096878e-05, -6.059379209235979e-07,
    8.224983474464358e-09, -5.629668279160268e-11, 1.921137112021778e-14, 5.529363736406816e-15,
    0.9290057713654092, 0.017857986327350365, -2.518642570856231e-05, -5.736003762240363e-07,
    7.943981737465006e-09, -5.606634989415237e-11, 5.787161571321688e-14, 4.764527436453452e-15,
    0.9468380055546527, 0.01780592417078035, -2.686012264217992e-05, -5.423837886953241e-07,
    7.664684800983195e-09, -5.562001189523932e-11, 9.118147087578454e-14, 4.0761903694662445e-15,
    0.9646165348281622, 0.01775060715534467, -2.8441840646257494e-05, -5.122792834156723e-07,
    7.388095112099458e-09, -5.49881728656495e-11, 1.1967630703073272e-13, 3.4583737090710224e-15,
    0.9823381951968073, 0.017692215914383757, -2.9934897939790677e-05, -4.832742702174886e-07,
    7.115070418825639e-09, -5.419824987719495e-11, 1.4384961697632852e-13, 2.905340571376601e-15,
), dtype=float).reshape(_ERFCX_ROWS, 8).T.copy()


def _erfcx(a):
    """e^(a^2) erfc(a) for a >= 0 (nan stays nan), elementwise: one gather of
    table rows and Horner's rule; past a = 63 a depth-4 continued fraction.
    a = inf is taken as the largest float, whose value is positive: its log
    is finite."""
    u = _ERFCX_ROWS / (1.0 + a)
    row = np.fmin(u, _ERFCX_ROWS - 1).astype(np.intp)  # a = 0 (u = 64) and nan in row 63
    t = u - row
    coefs = _ERFCX_COEFS.take(row, axis=1)
    value = coefs[-1] * t
    for c in coefs[-2:0:-1]:
        value += c
        value *= t
    value += coefs[0]
    if not row.all():
        big = np.clip(a, _ERFCX_ROWS - 1.0, sys.float_info.max)  # no 1/0 at a = 0
        d = big
        for k in (2.0, 1.5, 1.0, 0.5):
            d = big + k / d
        value = np.where(row == 0, _INV_SQRT_PI / d, value)
    return value


def _normal_tail(x):
    """(e^(x^2/2) q, q) with q = 1 - Phi(|x|), elementwise over an array.

    e^(-x^2/2) is the product e^(-h^2/2) e^(-(|x|-h)(|x|+h)/2), with h the
    float32 rounding of |x|, whose square is exact; the rounding of x^2 itself
    would move q by x^2/2 ulp.  q underflows from |x| = 38.5 on, and |x| is
    capped at 40 (inf included) in that product."""
    ax = np.abs(x)
    scaled = 0.5 * _erfcx(_SQRT_HALF * ax)
    ax = np.minimum(ax, 40.0)
    h = ax.astype(np.float32).astype(float)
    return scaled, scaled * np.exp(-0.5 * (ax - h) * (ax + h)) * np.exp(-0.5 * h * h)


def std_normal_sf(x):
    """Upper tail 1 - Phi(x), computed without cancellation, elementwise."""
    x = np.asarray(x, dtype=float)
    q = _normal_tail(x)[1]
    return _float_if_scalar(np.where(x > 0.0, q, 1.0 - q))


def log_std_normal_sf(x):
    """log(1 - Phi(x)), elementwise: log(erfcx(x/sqrt 2)/2) - x^2/2 for
    x > 0, which never underflows, and log1p(-q) with q = 1 - Phi(-x)
    otherwise; log 0 is never taken."""
    x = np.asarray(x, dtype=float)
    scaled, q = _normal_tail(x)
    xp = np.maximum(x, 0.0)  # x^2 of a huge negative x, not used, would overflow
    return _float_if_scalar(np.where(x > 0.0, np.log(scaled) - 0.5 * xp * xp, np.log1p(-q)))


def _converge(step, state, what: str) -> np.ndarray:
    """The live-set loop under every expansion here: ``state`` is a tuple of
    1-D arrays of one length, and ``step(n, *state)`` for n = 1, 2, ...
    returns the next state and a mask of the elements that have converged.
    Each element's result is the first state array as it stood at its own
    convergence, as a scalar loop would stop.  The arrays shrink to the live
    elements only after a step that converges some and leaves at most half
    live; until then converged elements keep stepping, never read again."""
    out = np.empty_like(state[0])
    index, live = np.arange(len(out)), np.ones(len(out), dtype=bool)
    n = 0
    while len(index):
        if n == _MAX_ITER:
            raise RuntimeError(f"{what} failed to converge")
        n += 1
        state, done = step(n, *state)
        done &= live
        if done.any():
            out[index[done]] = state[0][done]
            live ^= done
            if 2 * np.count_nonzero(live) <= len(live):
                index, state, live = index[live], tuple(x[live] for x in state), live[live]
    return out


def _not_tiny(x: np.ndarray) -> np.ndarray:
    return np.where(np.abs(x) < _TINY, _TINY, x)


def _gamma_series_step(n, total, term, ap, z):
    # the sum of gamma(a, z) = z^a e^(-z) sum_n z^n / (a (a+1) ... (a+n))
    # (DLMF 8.7.1), reliable for z < a + 1
    ap = ap + 1.0
    term = term * (z / ap)
    total = total + term
    return (total, term, ap, z), np.abs(term) < np.abs(total) * _EPS


def _gamma_cf_step(n, h, c, d, b, a):
    # Q(a, z) by modified-Lentz continued fraction, reliable for z >= a + 1
    an = -n * (n - a)
    b = b + 2.0
    d = 1.0 / _not_tiny(an * d + b)
    c = _not_tiny(b + an / c)
    delta = d * c
    h = h * delta
    return (h, c, d, b, a), np.abs(delta - 1.0) < _EPS


def _reg_gamma_cf(z: np.ndarray, a: np.ndarray, log_front: np.ndarray) -> np.ndarray:
    b = z + 1.0 - a
    d = 1.0 / b
    return _converge(_gamma_cf_step, (d, np.full_like(z, 1.0 / _TINY), d, b, a),
                     "incomplete gamma continued fraction") * np.exp(log_front)


def lower_incomplete_gamma(z, a, log_factor=0.0):
    """e^log_factor times the non-regularized lower incomplete gamma integral
    over [0, z], elementwise over numpy arrays or scalars (a float for scalar
    input).

    The power series serves z < a + 1 and the continued fraction the rest,
    each on its own part of the array.  ``log_factor`` joins the exponent of
    each part's one exp, so a factor that overflows beside an integral that
    underflows is never formed: the series is
    e^(log_factor - z + a log z) sum_n z^n / (a (a+1) ... (a+n)); past a + 1,
    the one part that takes log Gamma(a), it is e^(log_factor) Gamma(a) (1 - Q),
    with Q's front e^(-z) z^a / Gamma(a).  Where that front underflows
    (exponent < -746), Q is below one ulp of 1: the value at z = inf.
    """
    z, a, log_factor = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                             for x in (z, a, log_factor)))
    shape = z.shape
    z, a, log_factor = z.ravel(), a.ravel(), log_factor.ravel()
    if not np.all(a > 0.0):
        raise ValueError(f"lower_incomplete_gamma requires a > 0, got a={a[~(a > 0.0)][0]}")
    if not np.all(z >= 0.0):
        raise ValueError(f"lower_incomplete_gamma requires z >= 0, got z={z[~(z >= 0.0)][0]}")
    out = np.zeros_like(z)  # the value at z = 0
    with np.errstate(divide="ignore", invalid="ignore"):  # -inf at z = 0, nan at z = inf
        log_power = -z + a * np.log(z)
    lower = (z > 0.0) & (z < a + 1.0)
    term = 1.0 / a[lower]
    out[lower] = _converge(_gamma_series_step, (term, term, a[lower], z[lower]),
                           "incomplete gamma series") * np.exp(log_factor[lower] + log_power[lower])
    upper = z >= a + 1.0
    log_gamma_a = _elementwise(math.lgamma, a[upper])
    out[upper] = np.exp(log_factor[upper] + log_gamma_a)  # the value at z = inf
    log_power[upper] -= log_gamma_a  # there the log of Q's front
    cf = upper & (log_power >= -746.0)
    out[cf] *= 1.0 - _reg_gamma_cf(z[cf], a[cf], log_power[cf])
    return out.reshape(shape) if shape else float(out[0])


def _beta_head_step(n, total, term, h, a, b):
    # the sum of int_0^h t^(a-1)(1-t)^(b-1) dt
    # = h^a (1-h)^b / a sum_n (a+b)_n / (a+1)_n h^n (DLMF 8.17.8)
    term = term * ((a + b + (n - 1)) / (a + n) * h)
    total = total + term
    return (total, term, h, a, b), np.abs(term) < np.abs(total) * _EPS


def _beta_tail_step(n, total, coef, a, b, log_hi, log_lo, log_front):
    # int_lo^hi s^(b-1)(1-s)^(a-1) ds = sum_m c_m int_lo^hi s^(e-1) ds with
    # e = b + m and c_m = c_(m-1) (m-a)/m, the binomial coefficients of
    # (1-s)^(a-1); step n adds m = n - 1.  Relative to e^log_front each
    # integral is e^(max(e log hi, e log lo) - log_front) (1 - e^-x)/|e| with
    # x = |e| (log hi - log lo), or log hi - log lo where x is below one ulp
    e = b + (n - 1)
    width = log_hi - log_lo
    x = np.abs(e) * width
    piece = np.divide(-np.expm1(-x), np.abs(e), out=width, where=x >= _EPS)
    term = coef * np.exp(np.maximum(e * log_hi, e * log_lo) - log_front) * piece
    total = total + term
    coef = coef * ((n - a) / n)
    return (total, coef, a, b, log_hi, log_lo, log_front), np.abs(term) < np.abs(total) * _EPS


def _beta_from_zero(x, log_x, s0, log_s0, a, b, log_factor):
    """e^log_factor int_0^x t^(a-1)(1-t)^(b-1) dt for x > 0, from x, its
    complement s0 and their logs: the head series over [0, min(x, 1 - split)]
    and, where s0 < split, the tail series in s = 1 - t over [s0, split]."""
    split = _TAIL_SPAN / np.maximum(np.abs(a - 1.0), 2.0 * _TAIL_SPAN)
    tail = s0 < split
    log_split = np.log(split)
    log_front = (log_factor + a * np.where(tail, np.log1p(-split), log_x)
                 + b * np.where(tail, log_split, log_s0) - np.log(a))
    out = np.zeros_like(x)  # where the head's front underflows
    live = log_front >= -746.0
    h, ones = np.where(tail, 1.0 - split, x)[live], np.ones(live.sum())
    out[live] = np.exp(log_front[live]) * _converge(
        _beta_head_step, (ones, ones, h, a[live], b[live]), "incomplete beta head series")
    if tail.any():
        a, b, log_hi, log_lo = a[tail], b[tail], log_split[tail], log_s0[tail]
        log_front = np.maximum(b * log_hi, b * log_lo)
        out[tail] += np.exp(log_factor[tail] + log_front) * _converge(
            _beta_tail_step, (np.zeros_like(a), np.ones_like(a), a, b, log_hi, log_lo, log_front),
            "incomplete beta tail series")
    return out


def incomplete_beta_compl(one_minus_z, a, b, log_factor=0.0):
    """e^log_factor times the non-regularized incomplete beta integral over
    [0, z], given one_minus_z = 1 - z; accurate for z near 1.  Elementwise
    over numpy arrays or scalars (a float for scalar input).

    Requires 0 <= one_minus_z <= 1 and a > 0.  z = 1 is allowed only when
    b > 0 (the integral diverges at t = 1 otherwise).  Callers that know 1-z
    to full precision (e.g. from a logistic survival value) avoid the
    cancellation in forming z = 1 - (1-z).

    Two series serve, each with a positive front that ``log_factor`` joins
    before its one exp.  The head series (DLMF 8.17.8) covers
    [0, min(z, 1 - split)], split = min(1/2, 4/|a - 1|).  Where 1 - z < split,
    the binomial series in s = 1 - t covers [1 - z, split], for any b; its
    alternating terms cancel by at most about e^8 there.  For b > 1e-4 (so
    that B(a, b) is not huge) and z past the bulk, z >= (a+1)/(a+b+2), the
    symmetry B(a, b) - int_0^(1-z) s^(b-1)(1-s)^(a-1) ds (DLMF 8.17.4) serves
    instead where its head needs fewer terms.  The head's terms fall by about
    t per step near t = 1, so for a past about 100 and b below a few, a
    1 - z just above the split takes more than ``_MAX_ITER`` steps.
    """
    s0, a, b, log_factor = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                                 for x in (one_minus_z, a, b, log_factor)))
    shape = s0.shape
    s0, a, b, log_factor = s0.ravel(), a.ravel(), b.ravel(), log_factor.ravel()
    if not np.all(a > 0.0):
        raise ValueError(f"incomplete beta requires a > 0, got a={a[~(a > 0.0)][0]}")
    outside = ~((s0 >= 0.0) & (s0 <= 1.0))  # nan included
    if outside.any():
        raise ValueError(f"complement must lie in [0, 1], got {s0[outside][0]}")
    if np.any((s0 == 0.0) & (b <= 0.0)):
        raise ValueError("incomplete beta diverges at z=1 when b <= 0")
    z = 1.0 - s0
    with np.errstate(divide="ignore"):  # log 0 at s0 = 0 or 1
        log_z, log_s0 = np.log1p(-s0), np.log(s0)
        # the terms each head needs, about (b + 36) / -log z straight and
        # (a + 36) / -log(1 - z) swapped (36: -log of one ulp)
        swap = ((b > 1e-4) & (z >= (a + 1.0) / (a + b + 2.0))
                & ((np.maximum(a, 1.0) + 36.0) * -log_z < (np.maximum(b, 1.0) + 36.0) * -log_s0))
    out = np.zeros_like(z)  # the value at z = 0
    direct = (z > 0.0) & ~swap
    out[direct] = _beta_from_zero(*(y[direct] for y in (z, log_z, s0, log_s0, a, b, log_factor)))
    if swap.any():
        p, q = a[swap], b[swap]
        log_beta = (_elementwise(math.lgamma, p) + _elementwise(math.lgamma, q)
                    - _elementwise(math.lgamma, p + q))
        out[swap] = np.exp(log_factor[swap] + log_beta)
        part = swap & (s0 > 0.0)  # at z = 1 the value is B(a, b)
        out[part] -= _beta_from_zero(*(y[part] for y in (s0, log_s0, z, log_z, b, a, log_factor)))
    return out.reshape(shape) if shape else float(out[0])
