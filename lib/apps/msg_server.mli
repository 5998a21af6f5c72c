(** The paper's §2 message-dropping server: messages are delivered at a
    lower rate than they were sent, and the failure has two possible root
    causes —

    - a lost-update race on the shared buffer cursor two producer threads
      bump without synchronisation (the true defect a developer can fix);
    - network congestion dropping messages before they arrive (environment
      behaviour outside the developer's control).

    An output- or failure-deterministic replay may reproduce the drop via
    congestion, "deceiving the developer into thinking there isn't a
    problem at all" — fidelity 1/2. The race is data-plane code, so this
    app is also the honest counterexample where code-based RCSE misfires
    and trigger-based selection (race detector) is needed. *)

val app : unit -> App.t
