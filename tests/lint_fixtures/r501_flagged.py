"""R501 fixture: deleted delivery mechanisms written back (linted as a
copy under src/repro: no tombstone used here covers tests/)."""


class Router:
    def route_many(self, envelopes):
        for envelope in envelopes:
            self.route(envelope)

    def reset(self):
        # repro-lint: disable=R501
        self._buckets = {}  # repro-lint: disable=all
