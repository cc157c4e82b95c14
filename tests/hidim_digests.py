"""SHA-256 of ``tropbetti check`` stdout on systems in dimension 4 and 5.

``hidim_systems()`` draws ``random_system(rng, 5, 5, 4)`` from one
``random.Random(SEED)`` and keeps the first ``COUNT`` systems with n >= 4,
k >= n - 1 and a polynomial of at least 3 monomials.  ``CHECK[i]`` is the
digest of the stdout of ``tropbetti check`` on kept system i, written with
``serialize_system``; it pins the 19 of the 30 whose check takes about 1 s
or less on a 2-CPU host (the others take 1.5-10 s).  Every one of the 30
reported ``all_ok``, ``cross_method_ok`` and ``duality_ok`` when the
digests were captured.
"""

import random

from tropbetti.corpus import random_system

SEED = 3
COUNT = 30


def hidim_systems():
    rng = random.Random(SEED)
    kept = []
    while len(kept) < COUNT:
        s = random_system(rng, 5, 5, 4)
        if s.n >= 4 and s.k >= s.n - 1 and any(f.m >= 3 for f in s.polys):
            kept.append(s)
    return kept


CHECK = {
    1: "2126453a63f98d65a22b834c660cee1f8bcc85e6da9ce279f00b76bda759520c",  # n=4 k=3 ell=10
    2: "df0dcb4d9c449a83b73bfaa6dfa7cfa64c899bc24112d52a9b8472f16300b89e",  # n=4 k=4 ell=9
    4: "1d89dcecd34369d12469ea46bd15cd2ff59fd250cdce1b5a0ff9d9260b7295b1",  # n=5 k=4 ell=14
    5: "429cc5d99d63afcb5087fe88272e2677e06d91af5ef2b49b0856e5c1d25a564b",  # n=4 k=3 ell=7
    7: "61f7760f726df9022460ce87ed4ee6498569b5829a9665d03af30ef0f027bbee",  # n=4 k=3 ell=8
    8: "12f54741af208bfd27be7ef362d64dff9c94f020fb9badbb518efbf6811b6d35",  # n=4 k=3 ell=12
    9: "ff8384521ad3812ae07c58ee74afc974eb8f68dcb6892a8dd24a98e49bb3b501",  # n=4 k=3 ell=10
    10: "79676a5410bc0aef14ad147bfc177abc68b2f67e1d039eeeebe533e6fd17e93f",  # n=5 k=4 ell=14
    11: "e9d4ec4fad55a5f8fbb5022ade5def0fe9ba5ec022737886222d7341e8e159e8",  # n=4 k=3 ell=13
    12: "90c5ca17aad606328b7d990d72055c8df8508ba8b569689876eda11ab9eed752",  # n=4 k=5 ell=13
    13: "fdd6939f329b35c3d98220b5de64c138afcf758cbbc980bd013d8a5b244235bf",  # n=4 k=5 ell=17
    15: "17dcf06c51e15ac6dd16a105f72078748b34e9ecbd2e477417e75799add3386b",  # n=4 k=4 ell=15
    16: "a057b91cd2a887c671dab8c296866014f22d4c4d747b4b7bb505e0f4fd749e73",  # n=4 k=3 ell=9
    17: "2f981cea2a683dcfdf63d81004a8caf6a9672e936199a07395d87f01e82b043b",  # n=4 k=4 ell=13
    20: "be7ba7db17fea36150358352d9fc9385f3c5aded73c62183c80bf25e12cc41e7",  # n=4 k=3 ell=10
    23: "e9b053364443e6362864bca919d5c9aab6a87966585620995c54d19233854c92",  # n=5 k=4 ell=13
    25: "ccffe7bcbc3126f0d1471ccb04e201e9452e912967bc426da182317ecd07ffd0",  # n=5 k=4 ell=13
    26: "8f06cd32c531c0f7782b45e3903e877df8f748af77320171573742e783a76eb8",  # n=5 k=4 ell=14
    27: "1e2413a907a2bdabed1b53fa49f0d178f07578b426c62aec75364f86966ef477",  # n=4 k=3 ell=10
}
