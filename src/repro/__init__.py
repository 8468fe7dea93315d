"""ESCUDO reproduction: a fine-grained protection model for web browsers.

The package layout:

* :mod:`repro.core` -- the ESCUDO model itself (rings, ACLs, policy,
  reference monitor) plus the same-origin-policy baseline;
* :mod:`repro.html`, :mod:`repro.dom`, :mod:`repro.scripting`,
  :mod:`repro.http`, :mod:`repro.browser` -- the browser substrates;
* :mod:`repro.webapps` -- the server-side framework and the phpBB /
  PHP-Calendar / blog case studies;
* :mod:`repro.attacks` -- the XSS / CSRF / node-splitting /
  privilege-escalation / TOCTOU attack corpus;
* :mod:`repro.scenarios` -- the differential scenario engine (randomized
  multi-user sessions under a policy matrix, with a parity oracle);
* :mod:`repro.bench` -- workload generators and reporting for the
  benchmark harness.

Quickstart::

    from repro import quick_demo
    print(quick_demo())
"""

from __future__ import annotations

__version__ = "1.0.0"


def quick_demo() -> str:
    """Run the one-paragraph demo from the README and return its report.

    Loads the blog example application in an ESCUDO browser and in a
    same-origin-policy browser, injects the same malicious comment script in
    both, and reports whether the trusted blog post survived.
    """
    from repro.attacks.harness import quick_blog_demo

    return quick_blog_demo()


__all__ = ["__version__", "quick_demo"]
