val called : int
val only_tested : int
val opened : int
val aliased : int
