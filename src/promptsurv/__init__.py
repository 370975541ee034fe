"""Prompt-aligned hierarchical survival prediction at desk scale.

Modules by responsibility:
  autodiff  - dense-matrix reverse-mode differentiation engine
  optim     - Adam optimizer over named parameters
  data      - token bags, prompt sets, cohort I/O, synthetic generator
  alignment - entropic-transport prompt alignment and token selection
  fusion    - cross-level pooling and the gated recalibration
  contrast  - the prototype-pair queue and the mutual contrastive loss
  survival  - discrete-time hazard head, curves, and losses
  metrics   - concordance, Kaplan-Meier, log-rank, stratification
  pipeline  - training loop, cross-validation, ablation, reports
  cli       - command-line entry points
"""

__version__ = "0.1.0"
