"""Online monocular 3D vehicle tracking toolkit.

Modules:
  geometry    pinhole projection, oriented boxes, 2D/3D IoU, painter's occlusion
  data        shared record types and tracker configuration
  io          JSON/JSONL readers and writers for sequences and tracks
  motion      Kalman filters, blend update, per-tracklet prediction
  lstm        from-scratch recurrent motion model with BPTT training
  association affinity fusion, depth-ordered matching, lifecycle
  metrics     CLEAR tracking metrics, depth/orientation/size scores, 3D AP
  simulator   deterministic synthetic scenario generator
  cli         batch commands: simulate / track / evaluate / train-motion
"""

__version__ = "0.1.0"
