"""Series kernels on the integer lattice of ``series``.

A term list is a tuple of (k, n) int pairs in strictly descending k with no
zero n. It stands for the terms (n/d)*t^(k/e) of a series whose ramification
index e and coefficient denominator d the caller keeps: both operands of
``kernel_add`` share one e and one d, both operands of ``kernel_mul`` share
one e, and the product's denominator is the product of theirs. The kernel is
one merge, ``kernel_add``, and one convolution, ``kernel_dot``: a sum of
signed products whose operands share one e and whose products share one d,
which every minor table runs on. ``kernel_mul`` shifts and scales by a
one-term operand and hands any longer product to ``kernel_dot``. Results are
term lists of the same form; dividing out common factors is the caller's
job. These kernels, with ``series.mul``'s product of two exact monomials,
carry essentially all the arithmetic load of the package.
"""


def kernel_add(a, b):
    """Merge two term lists, combining equal exponents, dropping zeros."""
    out = []
    i, j, la, lb = 0, 0, len(a), len(b)
    while i < la and j < lb:
        ea, ca = a[i]
        eb, cb = b[j]
        if ea > eb:
            out.append(a[i])
            i += 1
        elif eb > ea:
            out.append(b[j])
            j += 1
        else:
            c = ca + cb
            if c:
                out.append((ea, c))
            i += 1
            j += 1
    if i < la:
        out.extend(a[i:])
    if j < lb:
        out.extend(b[j:])
    return tuple(out)


def kernel_mul(a, b):
    """The product of two term lists: a shift when one has a single term,
    else one kernel_dot product."""
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        # one term shifts and scales the other list, which stays descending
        # with no zero coefficient
        (ea, ca), = a
        return tuple([(ea + eb, ca * cb) for eb, cb in b])
    return kernel_dot(((a, b, False),))


# kernel_dot accumulates in a list, one slot per exponent, while the span of
# the exponents is at most this many times the number of term products, and
# in a dict otherwise: a sparse operand such as t^(10^6) + 1 would make the
# list millions of slots long
_DENSE_SPAN = 4


def kernel_dot(terms):
    """The sum of a*b, or of -a*b where negative is set, over the (a, b,
    negative) triples of terms, in one accumulator with one final scan."""
    top = bottom = None
    products = 0
    for a, b, _ in terms:
        if not a or not b:
            continue
        hi, lo = a[0][0] + b[0][0], a[-1][0] + b[-1][0]
        if top is None:
            top, bottom = hi, lo
        else:
            if hi > top:
                top = hi
            if lo < bottom:
                bottom = lo
        products += len(a) * len(b)
    if top is None:
        return ()
    if top - bottom <= _DENSE_SPAN * products:
        acc = [0] * (top - bottom + 1)
        for a, b, negative in terms:
            for ea, ca in a:
                if negative:
                    ca = -ca
                base = top - ea
                for eb, cb in b:
                    acc[base - eb] += ca * cb
        return tuple([(top - i, c) for i, c in enumerate(acc) if c])
    acc = {}
    for a, b, negative in terms:
        for ea, ca in a:
            if negative:
                ca = -ca
            for eb, cb in b:
                e = ea + eb
                prev = acc.get(e)
                acc[e] = ca * cb if prev is None else prev + ca * cb
    return tuple([(e, acc[e]) for e in sorted(acc.keys(), reverse=True) if acc[e]])
