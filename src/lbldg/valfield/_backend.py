"""Series kernels on the integer lattice of ``series``.

A term list is a tuple of (k, n) int pairs in strictly descending k with no
zero n. It stands for the terms (n/d)*t^(k/e) of a series whose ramification
index e and coefficient denominator d the caller keeps: both operands of
``kernel_add`` share one e and one d, both operands of ``kernel_mul`` share
one e, and the product's denominator is the product of theirs. Results are
term lists of the same form; dividing out common factors is the caller's
job. These two functions carry essentially all the arithmetic load of the
package.
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
    """Convolve two term lists."""
    if not a or not b:
        return ()
    acc = {}
    for ea, ca in a:
        for eb, cb in b:
            e = ea + eb
            prev = acc.get(e)
            acc[e] = ca * cb if prev is None else prev + ca * cb
    # a list, not a generator: see the note on term tuples in series
    return tuple(
        [(e, acc[e]) for e in sorted(acc.keys(), reverse=True) if acc[e]]
    )
