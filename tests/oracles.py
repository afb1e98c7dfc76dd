"""Closed-form oracles the tests check the package against.

Each is the textbook formula with its constants written out here rather
than imported, so a wrong constant or derived factor in the package
shows up as a mismatch.  Call them inside their domain only: they do no
range checks.
"""

import math

G = 9.81                        # m/s^2, flight and sizing gravity
STANDARD_GRAVITY = 9.80665      # m/s^2, g0 of the barometric formula
MOLAR_MASS_AIR = 0.0289644      # kg/mol
GAS_CONSTANT = 8.31432          # J/(mol*K)


def temperature_at_altitude(model, altitude):
    """Linear-lapse air temperature in K at `altitude` metres."""
    return model.sea_level_temperature - model.lapse_rate * altitude


def altitude_from_pressure(model, pressure):
    """Altitude in m where the barometric formula gives `pressure` Pa."""
    exponent = (GAS_CONSTANT * model.lapse_rate
                / (STANDARD_GRAVITY * MOLAR_MASS_AIR))
    ratio = pressure / model.sea_level_pressure
    return model.sea_level_temperature / model.lapse_rate * (
        1.0 - ratio ** exponent)


def terminal_speed(mass, drag_area, rho):
    """Steady descent speed sqrt(2*m*g / (rho*Cd*A)) in m/s."""
    return math.sqrt(2.0 * mass * G / (rho * drag_area))
