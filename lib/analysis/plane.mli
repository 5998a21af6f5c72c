(** Control-plane / data-plane classification (§3.1.1).

    Control-plane code manages data flow and runs at low data rates;
    data-plane code moves the payload. The classifier thresholds the
    measured per-function data rate: functions above the threshold are
    data-plane, the rest (including functions never seen in training) are
    control-plane — the conservative direction, since control-plane code is
    what RCSE records precisely. *)

type t = Control | Data

val to_string : t -> string
val equal : t -> t -> bool

(** A total classification: function name to plane. *)
type map

(** The data rate (input-derived bytes per step) above which a function is
    data-plane in every session: 6.0 — see the taint-profile calibration
    in DESIGN.md. The static classifier's byte-weight counterpart is
    [Splane.default_threshold]. *)
val default_threshold : float

(** [classify profile ~threshold] assigns [Data] to functions whose rate
    (input-derived bytes per step) {e strictly} exceeds [threshold]: a
    rate equal to the threshold ties toward [Control], matching the
    static classifier's tie-breaking ({!Ddet_static.Splane} uses the same
    strict comparison on byte weights) and the [Control] default for
    functions absent from the profile ({!Taint_profile.rate} returns
    [0.] for unseen names). *)
val classify : Taint_profile.t -> threshold:float -> map

(** [of_assoc l] builds a map from explicit assignments (ground truth in
    tests and ablations). *)
val of_assoc : (string * t) list -> map

(** [plane_of map fname] — unknown functions are [Control]. *)
val plane_of : map -> string -> t

(** [to_assoc map] lists the explicit assignments, sorted by name. *)
val to_assoc : map -> (string * t) list

(** [selector map] is the RCSE code-based selector: high fidelity exactly in
    control-plane functions. *)
val selector : map -> Ddet_record.Fidelity_level.selector
