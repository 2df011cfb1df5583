"""Synthetic US airline on-time performance data (the paper's dataset).

The generator reproduces the structure the paper's evaluation depends on:

* the BTS schema: dates, carrier, origin/destination with city and state,
  scheduled/actual departure times, delays, cancellations, taxi times,
  distance, air time, and per-cause delay attributions;
* realistic conditional effects so the Figure 10 case-study questions have
  answers: per-carrier delay and cancellation profiles, hour-of-day and
  day-of-week effects, December volume spikes, city weather profiles,
  great-circle route distances, Hawaii route structure, and carriers that
  stop flying mid-period;
* missing values where BTS has them (no departure data for cancelled
  flights, no arrival data for diverted ones).

Everything is vectorized and seeded: ``generate_flights(n, seed)`` is
deterministic, and partitions generated independently with derived seeds
are reproducible shard-by-shard — which the engine's replay requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.rand import rng_for, stable_hash64
from repro.storage.loader import FlightsSource
from repro.table.column import (
    DateColumn,
    DoubleColumn,
    IntColumn,
    StringColumn,
)
from repro.table.dictionary import StringDictionary
from repro.table.schema import ColumnDescription, ContentsKind
from repro.table.table import Table


@dataclass(frozen=True)
class Airline:
    """A carrier with its operational profile."""

    code: str
    name: str
    weight: float  # share of flights
    delay_offset: float  # minutes added to mean departure delay
    cancel_rate: float  # base cancellation probability
    taxi_offset: float  # minutes added to taxi-out
    first_year: int = 1999
    last_year: int = 2018  # carriers with last_year < 2018 stop mid-period
    flies_hawaii: bool = False


#: Carrier profiles.  HA has the least delay (Q2), NK the most late flights,
#: EV the most cancellations (Q9); EV and MQ stop flying mid-period (Q19).
AIRLINES: list[Airline] = [
    Airline("WN", "Southwest", 0.18, 2.0, 0.010, 1.0, flies_hawaii=True),
    Airline("AA", "American", 0.14, 4.0, 0.018, 3.0, flies_hawaii=True),
    Airline("DL", "Delta", 0.14, 1.0, 0.008, 2.0, flies_hawaii=True),
    Airline("UA", "United", 0.12, 6.0, 0.016, 4.5, flies_hawaii=True),
    Airline("OO", "SkyWest", 0.08, 3.5, 0.020, 1.5),
    Airline("AS", "Alaska", 0.06, 0.5, 0.007, 1.2, flies_hawaii=True),
    Airline("B6", "JetBlue", 0.06, 7.0, 0.015, 2.5),
    Airline("EV", "ExpressJet", 0.05, 5.0, 0.046, 2.0, last_year=2012),
    Airline("MQ", "Envoy", 0.05, 4.5, 0.024, 1.8, last_year=2014),
    Airline("NK", "Spirit", 0.04, 9.0, 0.022, 2.2),
    Airline("F9", "Frontier", 0.03, 8.0, 0.020, 1.6),
    Airline("YX", "Republic", 0.03, 3.0, 0.014, 1.4),
    Airline("HA", "Hawaiian", 0.01, -2.0, 0.004, 0.5, flies_hawaii=True),
    Airline("G4", "Allegiant", 0.01, 6.5, 0.018, 1.0),
]


@dataclass(frozen=True)
class Airport:
    code: str
    city: str
    state: str
    lat: float
    lon: float
    weight: float  # traffic share
    weather_factor: float  # multiplier on weather delays (1.0 = typical)
    taxi_offset: float  # minutes added to taxi-out at this airport


#: Airports.  ORD has the worst weather delays and HNL/PHX the best (Q13);
#: big hubs have long taxi times; Hawaii has four airports (Q14, Q15).
AIRPORTS: list[Airport] = [
    Airport("ATL", "Atlanta", "GA", 33.64, -84.43, 0.085, 1.1, 5.0),
    Airport("ORD", "Chicago", "IL", 41.98, -87.90, 0.075, 2.2, 6.0),
    Airport("DFW", "Dallas-Fort Worth", "TX", 32.90, -97.04, 0.065, 1.3, 4.5),
    Airport("DEN", "Denver", "CO", 39.86, -104.67, 0.060, 1.8, 3.5),
    Airport("LAX", "Los Angeles", "CA", 33.94, -118.41, 0.058, 0.6, 4.0),
    Airport("SFO", "San Francisco", "CA", 37.62, -122.38, 0.045, 1.7, 4.2),
    Airport("PHX", "Phoenix", "AZ", 33.43, -112.01, 0.042, 0.3, 3.0),
    Airport("IAH", "Houston", "TX", 29.98, -95.34, 0.040, 1.2, 4.0),
    Airport("LAS", "Las Vegas", "NV", 36.08, -115.15, 0.038, 0.3, 3.0),
    Airport("SEA", "Seattle", "WA", 47.45, -122.31, 0.036, 1.2, 3.2),
    Airport("JFK", "New York", "NY", 40.64, -73.78, 0.035, 1.5, 7.0),
    Airport("EWR", "Newark", "NJ", 40.69, -74.17, 0.034, 1.6, 7.5),
    Airport("LGA", "New York", "NY", 40.78, -73.87, 0.032, 1.5, 6.5),
    Airport("MSP", "Minneapolis", "MN", 44.88, -93.22, 0.030, 1.7, 3.0),
    Airport("DTW", "Detroit", "MI", 42.21, -83.35, 0.028, 1.5, 3.5),
    Airport("BOS", "Boston", "MA", 42.36, -71.01, 0.028, 1.6, 4.0),
    Airport("CLT", "Charlotte", "NC", 35.21, -80.94, 0.026, 0.9, 3.5),
    Airport("MIA", "Miami", "FL", 25.79, -80.29, 0.024, 1.0, 4.5),
    Airport("SLC", "Salt Lake City", "UT", 40.79, -111.98, 0.022, 1.0, 2.5),
    Airport("MCO", "Orlando", "FL", 28.43, -81.31, 0.022, 1.0, 3.0),
    Airport("SAN", "San Diego", "CA", 32.73, -117.19, 0.018, 0.4, 2.5),
    Airport("PDX", "Portland", "OR", 45.59, -122.60, 0.016, 1.1, 2.5),
    Airport("STL", "St. Louis", "MO", 38.75, -90.37, 0.014, 1.2, 2.8),
    Airport("BWI", "Baltimore", "MD", 39.18, -76.67, 0.014, 1.1, 3.0),
    Airport("OAK", "Oakland", "CA", 37.72, -122.22, 0.012, 0.8, 2.2),
    Airport("SJC", "San Jose", "CA", 37.36, -121.93, 0.012, 0.7, 2.2),
    Airport("AUS", "Austin", "TX", 30.19, -97.67, 0.012, 0.8, 2.5),
    Airport("MDW", "Chicago", "IL", 41.79, -87.75, 0.012, 2.0, 4.0),
    Airport("RDU", "Raleigh-Durham", "NC", 35.88, -78.79, 0.010, 0.9, 2.2),
    Airport("SMF", "Sacramento", "CA", 38.70, -121.59, 0.010, 0.7, 2.0),
    Airport("HNL", "Honolulu", "HI", 21.32, -157.92, 0.012, 0.2, 2.0),
    Airport("OGG", "Kahului", "HI", 20.90, -156.43, 0.005, 0.25, 1.5),
    Airport("KOA", "Kona", "HI", 19.74, -156.05, 0.003, 0.3, 1.5),
    Airport("LIH", "Lihue", "HI", 21.98, -159.34, 0.002, 0.35, 1.5),
]

HAWAII_CODES = ("HNL", "OGG", "KOA", "LIH")
WEST_COAST_CODES = ("LAX", "SFO", "SEA", "SAN", "PDX", "OAK", "SJC", "PHX", "LAS")

#: The full column list (BTS naming), in schema order.
FLIGHT_COLUMNS = [
    "Year",
    "Month",
    "DayofMonth",
    "DayOfWeek",
    "FlightDate",
    "Airline",
    "FlightNum",
    "Origin",
    "OriginCityName",
    "OriginState",
    "Dest",
    "DestCityName",
    "DestState",
    "CRSDepTime",
    "DepTime",
    "DepDelay",
    "ArrDelay",
    "Cancelled",
    "Diverted",
    "Distance",
    "AirTime",
    "TaxiOut",
    "TaxiIn",
    "CarrierDelay",
    "WeatherDelay",
    "NASDelay",
    "SecurityDelay",
    "LateAircraftDelay",
]

_EPOCH_1999 = 915148800000  # 1999-01-01T00:00:00Z in epoch milliseconds
_MS_PER_DAY = 86_400_000


def _haversine_miles(
    lat1: np.ndarray, lon1: np.ndarray, lat2: np.ndarray, lon2: np.ndarray
) -> np.ndarray:
    rad = np.pi / 180.0
    dlat = (lat2 - lat1) * rad
    dlon = (lon2 - lon1) * rad
    a = (
        np.sin(dlat / 2) ** 2
        + np.cos(lat1 * rad) * np.cos(lat2 * rad) * np.sin(dlon / 2) ** 2
    )
    return 3958.8 * 2 * np.arcsin(np.sqrt(a))


def _normalized(weights: list[float]) -> np.ndarray:
    arr = np.array(weights, dtype=np.float64)
    return arr / arr.sum()


def _category_column(name: str, values: list[str], indexes: np.ndarray) -> StringColumn:
    """Build a CATEGORY column from per-row indexes into ``values``.

    ``values`` may contain duplicates (two airports share a city name); the
    dictionary deduplicates, so indexes are remapped through it.
    """
    dictionary = StringDictionary(values)
    remap = np.array([dictionary.code_for(v) for v in values], dtype=np.int32)
    return StringColumn(
        ColumnDescription(name, ContentsKind.CATEGORY),
        remap[indexes],
        dictionary,
    )


def generate_flights(
    rows: int,
    seed: int = 0,
    start_year: int = 1999,
    years: int = 20,
    extra_columns: int = 0,
    shard_id: str = "flights",
) -> Table:
    """Generate ``rows`` synthetic flights as one table.

    ``extra_columns`` appends that many synthetic numeric metric columns
    (``Metric00``...), used to reach the paper's 110-column width when an
    experiment accounts cells rather than analyzing content.
    """
    if rows < 1:
        raise ValueError("rows must be >= 1")
    rng = rng_for(seed, "flights", shard_id)
    n = rows

    # ------------------------------------------------------------------
    # Dates: uniform over the period with a December volume spike (Q18),
    # suppressed on Dec 25 (fewest flights).
    # ------------------------------------------------------------------
    start_day = np.datetime64(f"{start_year}-01-01", "D").astype(np.int64)
    end_day = np.datetime64(f"{start_year + years}-01-01", "D").astype(np.int64)
    days = start_day + rng.integers(0, end_day - start_day, size=n)
    dates64 = days.astype("datetime64[D]")
    years_arr = dates64.astype("datetime64[Y]").astype(np.int64) + 1970
    months_arr = dates64.astype("datetime64[M]").astype(np.int64) % 12 + 1
    month_start = dates64.astype("datetime64[M]").astype("datetime64[D]")
    dom_arr = (dates64 - month_start).astype(np.int64) + 1

    # December spike: re-draw a fraction of rows into Dec 20-23 (Q18: most
    # flights); Dec 25 flights are thinned (fewest flights).
    spike = rng.random(n) < 0.02
    months_arr = np.where(spike, 12, months_arr)
    dom_arr = np.where(spike, rng.integers(20, 24, size=n), dom_arr)
    on_christmas = (months_arr == 12) & (dom_arr == 25)
    thin = on_christmas & (rng.random(n) < 0.6)
    dom_arr = np.where(thin, 26, dom_arr)

    # Rebuild FlightDate from (year, month, day) so fields stay consistent.
    months_since_epoch = (years_arr - 1970) * 12 + (months_arr - 1)
    flight_dates = months_since_epoch.astype("datetime64[M]").astype(
        "datetime64[D]"
    ) + (dom_arr - 1).astype("timedelta64[D]")
    flight_date_ms = flight_dates.astype("datetime64[ms]").astype(np.int64)
    # 1970-01-01 was a Thursday; BTS DayOfWeek: 1=Monday ... 7=Sunday.
    dow_arr = (
        (flight_date_ms // _MS_PER_DAY + 3) % 7 + 1
    ).astype(np.int64)

    # ------------------------------------------------------------------
    # Carrier: weighted choice, remapped when inactive that year (Q19).
    # ------------------------------------------------------------------
    airline_weights = _normalized([a.weight for a in AIRLINES])
    airline_idx = rng.choice(len(AIRLINES), size=n, p=airline_weights)
    first_years = np.array([a.first_year for a in AIRLINES])
    last_years = np.array([a.last_year for a in AIRLINES])
    inactive = (years_arr < first_years[airline_idx]) | (
        years_arr > last_years[airline_idx]
    )
    airline_idx = np.where(inactive, 0, airline_idx)  # WN always active

    # ------------------------------------------------------------------
    # Route: weighted origin and destination; fix dest == origin; Hawaii
    # destinations restricted to carriers that fly there (Q14).
    # ------------------------------------------------------------------
    airport_weights = _normalized([a.weight for a in AIRPORTS])
    origin_idx = rng.choice(len(AIRPORTS), size=n, p=airport_weights)
    dest_idx = rng.choice(len(AIRPORTS), size=n, p=airport_weights)
    same = dest_idx == origin_idx
    dest_idx = np.where(same, (dest_idx + 1) % len(AIRPORTS), dest_idx)

    hawaii_set = {i for i, a in enumerate(AIRPORTS) if a.code in HAWAII_CODES}
    hawaii_mask = np.isin(dest_idx, list(hawaii_set)) | np.isin(
        origin_idx, list(hawaii_set)
    )
    flies_hi = np.array([a.flies_hawaii for a in AIRLINES])
    bad_hawaii = hawaii_mask & ~flies_hi[airline_idx]
    ha_index = next(i for i, a in enumerate(AIRLINES) if a.code == "HA")
    airline_idx = np.where(bad_hawaii, ha_index, airline_idx)
    # HA keeps most flights within/to Hawaii: route HA's mainland-to-mainland
    # flights through Honolulu instead.
    ha_rows = airline_idx == ha_index
    hnl_index = next(i for i, a in enumerate(AIRPORTS) if a.code == "HNL")
    west = [i for i, a in enumerate(AIRPORTS) if a.code in WEST_COAST_CODES]
    ha_fix = ha_rows & ~hawaii_mask
    origin_idx = np.where(ha_fix, np.array(west)[rng.integers(0, len(west), n)], origin_idx)
    dest_idx = np.where(ha_fix, hnl_index, dest_idx)

    lat = np.array([a.lat for a in AIRPORTS])
    lon = np.array([a.lon for a in AIRPORTS])
    distance = _haversine_miles(
        lat[origin_idx], lon[origin_idx], lat[dest_idx], lon[dest_idx]
    ).round(0)

    # ------------------------------------------------------------------
    # Schedule: departure hour 5-22, weighted toward morning/evening banks.
    # ------------------------------------------------------------------
    hour_weights = _normalized(
        [1.5, 2.5, 3.0, 2.8, 2.5, 2.3, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.5, 2.2, 1.8, 1.2, 0.8, 0.4]
    )
    dep_hour = rng.choice(np.arange(5, 23), size=n, p=hour_weights)
    dep_minute = rng.integers(0, 60, size=n)
    crs_dep_time = dep_hour * 100 + dep_minute

    # ------------------------------------------------------------------
    # Delays: carrier + hour-of-day + day-of-week + weather + noise.
    # Hour effect grows during the day (Q7: ~6am is best); Tuesday is the
    # calmest weekday (Q17); weather follows the origin's profile and is
    # worst in winter/summer-storm months (Q13).
    # ------------------------------------------------------------------
    delay_offset = np.array([a.delay_offset for a in AIRLINES])
    hour_effect = (dep_hour - 5).astype(np.float64) * 0.9  # minutes
    dow_effect = np.array([0.0, 2.0, -1.5, 0.0, 1.0, 3.0, 0.5, -0.5])[dow_arr]
    weather_factor = np.array([a.weather_factor for a in AIRPORTS])
    month_weather = np.array(
        [0.0, 1.8, 1.4, 0.8, 0.5, 0.6, 1.2, 1.5, 1.0, 0.4, 0.3, 0.7, 1.9]
    )  # index by month (1-12); December and January worst
    weather_delay_mean = 2.5 * weather_factor[origin_idx] * month_weather[months_arr]
    weather_component = rng.exponential(1.0, size=n) * weather_delay_mean
    base_noise = rng.normal(-3.0, 6.0, size=n)
    tail = rng.exponential(18.0, size=n) * (rng.random(n) < 0.22)
    dep_delay = (
        delay_offset[airline_idx] + hour_effect + dow_effect + base_noise + tail
        + weather_component
    ).round(1)

    # Cancellations: carrier base rate amplified by weather (Q9).
    cancel_rate = np.array([a.cancel_rate for a in AIRLINES])
    cancel_prob = cancel_rate[airline_idx] * (
        1.0 + 0.3 * weather_factor[origin_idx] * month_weather[months_arr]
    )
    cancelled = rng.random(n) < cancel_prob
    diverted = (~cancelled) & (rng.random(n) < 0.0022)

    # Arrival delay: departure delay +/- enroute recovery, NaN if no arrival.
    arr_delay = (dep_delay + rng.normal(-2.0, 9.0, size=n)).round(1)

    air_speed = rng.normal(7.6, 0.5, size=n).clip(6.0, 9.0)  # miles/minute
    air_time = (distance / air_speed + rng.normal(18, 4, size=n)).round(0).clip(20, None)

    taxi_airport = np.array([a.taxi_offset for a in AIRPORTS])
    taxi_airline = np.array([a.taxi_offset for a in AIRLINES])
    taxi_out = (
        8.0
        + taxi_airport[origin_idx]
        + taxi_airline[airline_idx]
        + rng.exponential(3.0, size=n)
    ).round(1)
    taxi_in = (4.0 + 0.4 * taxi_airport[dest_idx] + rng.exponential(2.0, size=n)).round(1)

    # Delay attribution (only for delayed, completed flights).
    positive = np.clip(dep_delay, 0, None)
    weather_part = np.minimum(weather_component, positive).round(1)
    late_aircraft = (np.clip(positive - weather_part, 0, None) * rng.beta(2, 5, n)).round(1)
    carrier_part = np.clip(positive - weather_part - late_aircraft, 0, None) * 0.6
    nas_part = np.clip(positive - weather_part - late_aircraft - carrier_part, 0, None)
    security_part = (rng.random(n) < 0.001) * rng.exponential(15.0, size=n)

    dep_time = (crs_dep_time + np.trunc(dep_delay / 60) * 100 + dep_delay % 60).astype(
        np.int64
    ) % 2400

    flight_num = (
        stable_hash64("flightnum", seed) % 97
        + airline_idx * 391
        + rng.integers(1, 1900, size=n)
    ).astype(np.int64) % 6000 + 1

    no_departure = cancelled
    no_arrival = cancelled | diverted

    airline_codes = [a.code for a in AIRLINES]
    airport_codes = [a.code for a in AIRPORTS]
    airport_cities = [a.city for a in AIRPORTS]
    airport_states = [a.state for a in AIRPORTS]

    def date_col(name: str, values: np.ndarray) -> DateColumn:
        return DateColumn(ColumnDescription(name, ContentsKind.DATE), values)

    def int_col(name: str, values: np.ndarray, missing: np.ndarray | None = None) -> IntColumn:
        return IntColumn(
            ColumnDescription(name, ContentsKind.INTEGER),
            values.astype(np.int64),
            missing,
        )

    def dbl_col(name: str, values: np.ndarray, missing: np.ndarray | None = None) -> DoubleColumn:
        data = values.astype(np.float64).copy()
        if missing is not None:
            data[missing] = np.nan
        return DoubleColumn(ColumnDescription(name, ContentsKind.DOUBLE), data)

    columns = [
        int_col("Year", years_arr),
        int_col("Month", months_arr),
        int_col("DayofMonth", dom_arr),
        int_col("DayOfWeek", dow_arr),
        date_col("FlightDate", flight_date_ms),
        _category_column("Airline", airline_codes, airline_idx),
        int_col("FlightNum", flight_num),
        _category_column("Origin", airport_codes, origin_idx),
        _category_column("OriginCityName", airport_cities, origin_idx),
        _category_column("OriginState", airport_states, origin_idx),
        _category_column("Dest", airport_codes, dest_idx),
        _category_column("DestCityName", airport_cities, dest_idx),
        _category_column("DestState", airport_states, dest_idx),
        int_col("CRSDepTime", crs_dep_time),
        int_col("DepTime", dep_time, missing=no_departure),
        dbl_col("DepDelay", dep_delay, missing=no_departure),
        dbl_col("ArrDelay", arr_delay, missing=no_arrival),
        int_col("Cancelled", cancelled.astype(np.int64)),
        int_col("Diverted", diverted.astype(np.int64)),
        dbl_col("Distance", distance),
        dbl_col("AirTime", air_time, missing=no_arrival),
        dbl_col("TaxiOut", taxi_out, missing=no_departure),
        dbl_col("TaxiIn", taxi_in, missing=no_arrival),
        dbl_col("CarrierDelay", carrier_part.round(1), missing=no_arrival),
        dbl_col("WeatherDelay", weather_part, missing=no_arrival),
        dbl_col("NASDelay", nas_part.round(1), missing=no_arrival),
        dbl_col("SecurityDelay", security_part.round(1), missing=no_arrival),
        dbl_col("LateAircraftDelay", late_aircraft, missing=no_arrival),
    ]
    for i in range(extra_columns):
        metric_rng = rng_for(seed, "metric", shard_id, i)
        columns.append(
            dbl_col(f"Metric{i:02d}", metric_rng.normal(100.0, 15.0, size=n))
        )
    return Table(columns, shard_id=shard_id)


def flights_partitions(
    total_rows: int,
    partitions: int,
    seed: int = 0,
    extra_columns: int = 0,
) -> list[Table]:
    """Generate the dataset as independently seeded partitions.

    Each partition is reproducible on its own, which models arbitrary
    horizontal sharding (§2) and lets the engine replay a single worker's
    shards after a failure without touching the others.
    """
    return FlightsSource(total_rows, partitions, seed, extra_columns).load()
