(** Mini-CloudStore: a replicated block store in the style of the second
    datacenter system the paper's control-plane study names (CloudStore /
    HDFS-like write pipelines).

    Architecture — two writer clients, a primary and a secondary
    chunkserver:

    - writers upload blocks to the primary (block id + payload, serialised
      per connection by a lock) and wait for the acknowledgement;
    - the primary stores the block, {b acknowledges immediately}, and only
      then forwards the replication pair to the secondary — the early-ack
      defect;
    - after uploading everything, each writer verifies one of its blocks:
      a control-plane routing choice picks which replica serves the read
      (load balancing);
    - servers answer reads from their local disk; a missing block reads
      as 0.

    The failure: a verification read returns "missing" for a block whose
    write was acknowledged — no error anywhere, the data is simply not
    where the reader looked. Three root causes produce it:

    + ["early-ack-race"] — the read reached the secondary before the
      replication did (the block arrives later: transient, the true
      defect — the fix is to acknowledge after the full pipeline, or to
      route reads read-your-writes);
    + ["replication-drop"] — the primary's forwarding link dropped a
      replication (fault input): the block never arrives;
    + ["disk-fault"] — the secondary's disk rejected writes (fault
      input).

    As in miniht, fault handling lives in control-plane startup functions,
    payload processing in the data plane, and the routing decision in its
    own control-plane function — so control-plane RCSE pins the root
    cause. *)

val app : unit -> App.t

val rc_race : string
val rc_drop : string
val rc_disk : string
