(** Mini-Hypertable: the paper's §4 case study (Hypertable issue 63),
    rebuilt on the mini-VM.

    Architecture — a master, two range servers and several load clients
    over a two-range key space:

    - clients route each row by reading the range-ownership map
      ([route], control-plane) and send the payload to the owner
      (data-plane);
    - the master migrates range 0 from server 0 to server 1 once server 0
      has committed enough rows: it asks server 0 to transfer its rows and
      flips the ownership map (control-plane);
    - servers process commit payloads (data-plane loop) and control
      messages — transfer, shutdown with fault handling (control-plane);
    - after a sequential shutdown, the main thread dumps the table by
      asking each range's *current owner* for its row count.

    The failure: the dump returns fewer rows than were loaded, with no
    error anywhere — rows committed to a server that no longer owns their
    range are merely ignored, exactly the bug report. Three root causes
    can produce this failure (§4):

    + ["migration-commit-race"] — a row is committed to the old owner
      concurrently with the migration (the true defect);
    + ["server-crash"] — a range server crashes (fault input) after upload,
      losing its rows: expected behaviour, not a bug;
    + ["client-oom"] — the dump client runs out of memory (fault input) and
      truncates the dump.

    Failure determinism can reproduce the failure through any of the
    three, hence fidelity 1/3; RCSE with control-plane selection pins the
    routing/migration interleaving and the fault inputs, reproducing the
    race itself. *)

val app : unit -> App.t

(** The ids of the three catalog causes, for tests and benches. *)

val rc_race : string
val rc_crash : string
val rc_oom : string
