"""machlab: a pseudo-spectral laboratory for slightly compressible 2D flow.

Three layers:

* substrate: periodic grids, FFT fields, projections, dyadic frequency
  blocks, plain and weighted Besov norms (``spectral``, ``littlewood_paley``)
* solvers: the split-step compressible integrator, the vorticity-form
  incompressible reference, the transport lab with its characteristics
  oracle, and the exact acoustic propagator (``compressible``,
  ``incompressible``, ``transport``, ``acoustic``)
* bookkeeping: run ledgers, lifespan/smallness predictions, trend checks,
  experiment drivers, and the acceptance suite (``ledger``, ``asymptotics``,
  ``experiments``, ``acceptance``, ``cli``)
"""
